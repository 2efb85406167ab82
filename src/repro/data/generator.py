"""Synthetic market-basket data generator (Section 5 of the paper).

The paper evaluates on data produced by the Agrawal–Srikant style generator
[AS94], in the variant spelled out in its Section 5:

1. Generate ``L`` *maximal potentially large itemsets* ("patterns").  The
   size of each pattern is Poisson with mean ``I``; each successive pattern
   takes half of its items from the previous pattern and draws the other
   half uniformly at random, so patterns share items.
2. Each pattern ``I`` carries a weight ``w_I`` drawn from an exponential
   distribution with unit mean; weights are normalised into pick
   probabilities (the "L-sided weighted die").
3. Transaction sizes are Poisson with mean ``T``.  A transaction is filled
   by assigning patterns in succession.  If a pattern does not fit exactly,
   it is kept in the current transaction half of the time and moved to the
   next transaction the other half of the time.
4. Before a pattern is added it is *corrupted*: with per-pattern noise level
   ``n_I ~ Normal(0.5, 0.1)`` (variance 0.1), a geometric variate ``G`` with
   parameter ``n_I`` is drawn and ``min(G, |I|)`` randomly chosen items are
   dropped.

Datasets are named with the paper's ``T<T>.I<I>.D<D>`` convention, e.g.
``T10.I6.D100K`` (mean transaction size 10, mean pattern size 6, 100 000
transactions); :func:`parse_spec` and :func:`format_spec` convert between
spec strings and :class:`GeneratorConfig`.

[AS94] R. Agrawal, R. Srikant.  "Fast Algorithms for Mining Association
       Rules in Large Databases."  VLDB 1994.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from repro.data.transaction import TransactionDatabase
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive, check_probability

_SPEC_RE = re.compile(
    r"^T(?P<t>\d+(?:\.\d+)?)\.I(?P<i>\d+(?:\.\d+)?)\.D(?P<d>\d+(?:\.\d+)?)(?P<suffix>[KM]?)$",
    re.IGNORECASE,
)

# Noise levels are clipped into this open interval so the geometric draw is
# always well defined (a parameter of exactly 0 or 1 degenerates).
_NOISE_CLIP = (0.01, 0.99)


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the synthetic market-basket generator.

    Attributes
    ----------
    num_transactions:
        Database size ``D``.
    avg_transaction_size:
        Mean transaction size ``T`` (Poisson mean).
    avg_pattern_size:
        Mean size ``I`` of a maximal potentially large itemset.
    num_items:
        Universe size ``|U|``.  The paper uses a universe of 1000 items.
    num_patterns:
        Number ``L`` of potentially large itemsets (paper: 2000).
    carry_fraction:
        Fraction of each successive pattern's items taken from the previous
        pattern (paper: one half).
    noise_mean, noise_std:
        Parameters of the per-pattern noise level distribution
        ``n_I ~ Normal(noise_mean, noise_std**2)`` (paper: mean 0.5,
        variance 0.1).
    spill_probability:
        Probability that a pattern that does not fit in the current
        transaction is moved to the next transaction (paper: one half).
    item_skew:
        Zipf exponent ``s`` skewing the item universe: item ``i`` (0-based
        popularity rank) is drawn with probability proportional to
        ``1 / (i + 1) ** s`` wherever the paper's generator draws an item
        uniformly (initial patterns, fresh pattern fills, the
        empty-transaction fallback).  ``0`` (the default) reproduces the
        paper's uniform universe exactly; positive values concentrate
        patterns on a hot head of the catalogue, which is what cluster
        rebalance and skew-aware partitioning benches need (see
        PAPERS.md: McCauley, Mikkelsen & Pagh).
    seed:
        Seed for the generator; the same config always produces the same
        database.
    spec_suffix:
        How the ``D`` part of :attr:`spec` is scaled: ``""`` for plain
        digits, ``"K"`` for thousands, ``"M"`` for millions, or ``None``
        (the default) to pick the most compact exact form automatically.
        :func:`parse_spec` records the style it parsed so the spec string
        round-trips verbatim.  The field does not affect generation and is
        excluded from equality/hashing.
    """

    num_transactions: int
    avg_transaction_size: float = 10.0
    avg_pattern_size: float = 6.0
    num_items: int = 1000
    num_patterns: int = 2000
    carry_fraction: float = 0.5
    noise_mean: float = 0.5
    noise_std: float = math.sqrt(0.1)
    spill_probability: float = 0.5
    item_skew: float = 0.0
    seed: Optional[int] = field(default=0)
    spec_suffix: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.spec_suffix not in (None, "", "K", "M"):
            raise ValueError(
                "spec_suffix must be one of None, '', 'K', 'M'; "
                f"got {self.spec_suffix!r}"
            )
        check_positive(self.num_transactions, "num_transactions")
        check_positive(self.avg_transaction_size, "avg_transaction_size")
        check_positive(self.avg_pattern_size, "avg_pattern_size")
        check_positive(self.num_items, "num_items")
        check_positive(self.num_patterns, "num_patterns")
        check_probability(self.carry_fraction, "carry_fraction")
        check_probability(self.spill_probability, "spill_probability")
        check_positive(self.noise_std, "noise_std", strict=False)
        check_positive(self.item_skew, "item_skew", strict=False)

    def with_(self, **changes) -> "GeneratorConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **changes)

    @property
    def spec(self) -> str:
        """The ``T·.I·.D·`` name of this configuration."""
        return format_spec(self)


def parse_spec(spec: str, **overrides) -> GeneratorConfig:
    """Parse a paper-style dataset name into a :class:`GeneratorConfig`.

    >>> parse_spec("T10.I6.D100K").num_transactions
    100000

    Additional keyword arguments override config fields, e.g.
    ``parse_spec("T10.I6.D100K", seed=7, num_items=500)``.
    """
    match = _SPEC_RE.match(spec.strip())
    if match is None:
        raise ValueError(
            f"invalid dataset spec {spec!r}; expected e.g. 'T10.I6.D100K'"
        )
    suffix = match.group("suffix").upper()
    multiplier = {"": 1, "K": 1000, "M": 1_000_000}[suffix]
    num_transactions = int(round(float(match.group("d")) * multiplier))
    config = GeneratorConfig(
        num_transactions=num_transactions,
        avg_transaction_size=float(match.group("t")),
        avg_pattern_size=float(match.group("i")),
        spec_suffix=suffix,
    )
    return config.with_(**overrides) if overrides else config


def format_spec(config: GeneratorConfig) -> str:
    """Format a config back into the paper's ``T·.I·.D·`` convention.

    The ``D`` part honours :attr:`GeneratorConfig.spec_suffix` when set, so
    ``format_spec(parse_spec(s)) == s.upper()`` for any valid spec; when the
    suffix style is unset the most compact exact form is chosen.
    """

    def _num(x: float) -> str:
        return f"{x:g}"

    d = config.num_transactions
    suffix = config.spec_suffix
    if suffix is None:
        if d % 1_000_000 == 0:
            suffix = "M"
        elif d % 1000 == 0:
            suffix = "K"
        else:
            suffix = ""
    multiplier = {"": 1, "K": 1000, "M": 1_000_000}[suffix]
    d_part = f"{_num(d / multiplier)}{suffix}"
    return (
        f"T{_num(config.avg_transaction_size)}."
        f"I{_num(config.avg_pattern_size)}.D{d_part}"
    )


class MarketBasketGenerator:
    """Stateful generator producing transactions from a fixed pattern pool.

    The pattern pool (itemsets, weights, noise levels) is drawn once at
    construction; :meth:`generate` can then be called repeatedly to produce
    independent databases from the same consumer-behaviour model, which is
    how the experiments draw held-out query transactions from the *same*
    distribution as the indexed data.
    """

    def __init__(self, config: GeneratorConfig, rng: RngLike = None) -> None:
        self.config = config
        self._rng = ensure_rng(config.seed if rng is None else rng)
        if config.item_skew > 0.0:
            ranks = np.arange(1, config.num_items + 1, dtype=np.float64)
            weights = ranks ** -config.item_skew
            self._item_probabilities: Optional[np.ndarray] = (
                weights / weights.sum()
            )
        else:
            self._item_probabilities = None
        self._patterns = self._build_patterns()
        weights = self._rng.exponential(1.0, size=config.num_patterns)
        self._probabilities = weights / weights.sum()
        noise = self._rng.normal(
            config.noise_mean, config.noise_std, size=config.num_patterns
        )
        self._noise_levels = np.clip(noise, *_NOISE_CLIP)

    # ------------------------------------------------------------------
    @property
    def patterns(self) -> List[np.ndarray]:
        """The maximal potentially large itemsets (for inspection/tests)."""
        return [p.copy() for p in self._patterns]

    @property
    def pattern_probabilities(self) -> np.ndarray:
        """Pick probability of each pattern (normalised exponential weights)."""
        return self._probabilities.copy()

    @property
    def noise_levels(self) -> np.ndarray:
        """Per-pattern corruption levels ``n_I``."""
        return self._noise_levels.copy()

    @property
    def item_probabilities(self) -> Optional[np.ndarray]:
        """Zipf pick probability per item rank, or ``None`` when uniform."""
        if self._item_probabilities is None:
            return None
        return self._item_probabilities.copy()

    def _draw_item(self, stream) -> int:
        """Draw one item id: uniform, or Zipf when ``item_skew > 0``.

        The uniform branch keeps the seed-stream consumption of the
        original generator bit-for-bit, so ``item_skew=0`` databases are
        byte-identical to those produced before the knob existed.
        """
        if self._item_probabilities is None:
            return int(stream.integers(0, self.config.num_items))
        return int(
            stream.choice(self.config.num_items, p=self._item_probabilities)
        )

    # ------------------------------------------------------------------
    def _build_patterns(self) -> List[np.ndarray]:
        config = self.config
        rng = self._rng
        sizes = np.maximum(
            rng.poisson(config.avg_pattern_size, size=config.num_patterns), 1
        )
        sizes = np.minimum(sizes, config.num_items)
        patterns: List[np.ndarray] = []
        previous: Optional[np.ndarray] = None
        for size in sizes:
            size = int(size)
            if previous is None:
                if self._item_probabilities is None:
                    chosen = rng.choice(
                        config.num_items, size=size, replace=False
                    )
                else:
                    chosen = rng.choice(
                        config.num_items,
                        size=size,
                        replace=False,
                        p=self._item_probabilities,
                    )
            else:
                num_carried = min(
                    int(round(size * config.carry_fraction)), previous.size
                )
                carried = rng.choice(previous, size=num_carried, replace=False)
                pattern_set = set(int(i) for i in carried)
                # Fill the remainder with fresh items not already chosen.
                while len(pattern_set) < size:
                    pattern_set.add(self._draw_item(rng))
                chosen = np.fromiter(pattern_set, dtype=np.int64)
            pattern = np.unique(chosen.astype(np.int64))
            patterns.append(pattern)
            previous = pattern
        return patterns

    def _corrupt(self, pattern_index: int) -> np.ndarray:
        """Drop ``min(G, |I|)`` random items from pattern ``pattern_index``."""
        pattern = self._patterns[pattern_index]
        level = self._noise_levels[pattern_index]
        g = self._rng.geometric(level)
        keep = pattern.size - min(int(g), pattern.size)
        if keep <= 0:
            return np.empty(0, dtype=np.int64)
        if keep == pattern.size:
            return pattern
        kept = self._rng.choice(pattern, size=keep, replace=False)
        return kept

    # ------------------------------------------------------------------
    def generate(
        self,
        num_transactions: Optional[int] = None,
        rng: RngLike = None,
    ) -> TransactionDatabase:
        """Generate a database of ``num_transactions`` transactions.

        Parameters
        ----------
        num_transactions:
            Overrides ``config.num_transactions`` when given.
        rng:
            Overrides the generator's internal stream (used to draw extra
            independent samples such as query workloads).
        """
        config = self.config
        n = config.num_transactions if num_transactions is None else num_transactions
        check_positive(n, "num_transactions")
        stream = self._rng if rng is None else ensure_rng(rng)

        target_sizes = np.maximum(
            stream.poisson(config.avg_transaction_size, size=n), 1
        )
        # A transaction is a union of patterns, so it cannot outgrow the
        # items they cover; an unreachable target would never close.
        target_sizes = np.minimum(
            target_sizes, np.unique(np.concatenate(self._patterns)).size
        )
        transactions: List[np.ndarray] = []
        pending: Optional[np.ndarray] = None
        pick_pool = _RefillingPool(
            lambda size: stream.choice(
                config.num_patterns, size=size, p=self._probabilities
            ),
            batch=max(4 * n, 1024),
        )
        coin_pool = _RefillingPool(
            lambda size: stream.random(size), batch=max(4 * n, 1024)
        )

        for target_size in target_sizes:
            current: set = set()
            while len(current) < target_size:
                if pending is not None:
                    corrupted, pending = pending, None
                else:
                    corrupted = self._corrupt(int(pick_pool.next()))
                if corrupted.size == 0:
                    continue
                fits = len(current) + corrupted.size <= target_size
                if fits:
                    current.update(int(i) for i in corrupted)
                    continue
                if coin_pool.next() < config.spill_probability:
                    # Move the pattern to the next transaction and close
                    # this one.
                    pending = corrupted
                else:
                    # Keep it in the current transaction even though it
                    # overshoots the target size.
                    current.update(int(i) for i in corrupted)
                break
            if not current:
                # Extremely unlikely (requires repeated full corruption);
                # fall back to a single random item so the database never
                # contains empty transactions.
                current = {self._draw_item(stream)}
            transactions.append(np.fromiter(current, dtype=np.int64))

        return TransactionDatabase(transactions, universe_size=config.num_items)


class _RefillingPool:
    """Amortise per-draw RNG overhead by sampling in large batches."""

    def __init__(self, sampler, batch: int) -> None:
        self._sampler = sampler
        self._batch = batch
        self._buffer = sampler(batch)
        self._cursor = 0

    def next(self):
        if self._cursor >= self._buffer.shape[0]:
            self._buffer = self._sampler(self._batch)
            self._cursor = 0
        value = self._buffer[self._cursor]
        self._cursor += 1
        return value


def generate(
    spec_or_config,
    seed: Optional[int] = None,
    **overrides,
) -> TransactionDatabase:
    """One-shot convenience: generate a database from a spec or config.

    >>> db = generate("T10.I6.D1K", seed=42)
    >>> len(db)
    1000
    """
    if isinstance(spec_or_config, str):
        config = parse_spec(spec_or_config, **overrides)
    elif isinstance(spec_or_config, GeneratorConfig):
        config = spec_or_config.with_(**overrides) if overrides else spec_or_config
    else:
        raise TypeError(
            "spec_or_config must be a spec string or GeneratorConfig, "
            f"got {type(spec_or_config).__name__}"
        )
    if seed is not None:
        config = config.with_(seed=seed)
    return MarketBasketGenerator(config).generate()
