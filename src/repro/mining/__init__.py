"""Support counting for signature construction.

Signature construction (Section 3.1 of the paper) needs the supports of all
sufficiently frequent 2-itemsets; :mod:`repro.mining.support` provides those
counts vectorised — the partitioner's only input from the market-basket
mining literature the paper builds on (its references [2, 3]).
"""

from repro.mining.support import PairSupports, count_pair_supports

__all__ = [
    "PairSupports",
    "count_pair_supports",
]
