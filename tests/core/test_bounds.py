"""Unit tests for the optimistic bounds (paper Section 4.1).

The load-bearing invariant — bounds are valid for *every* transaction an
entry indexes — is additionally covered by the hypothesis suite in
``tests/properties/test_bounds_property.py``; here we test hand-checkable
cases and the scalar/vectorised agreement.
"""

import numpy as np
import pytest

from repro.core.bounds import (
    BatchBoundCalculator,
    optimistic_distance,
    optimistic_matches,
)
from repro.core.signature import SignatureScheme
from repro.core.similarity import HammingSimilarity, MatchRatioSimilarity
from repro.data.transaction import as_item_array


@pytest.fixture()
def scheme():
    return SignatureScheme(
        [[0, 1, 2], [3, 4, 5], [6, 7]], universe_size=8, activation_threshold=1
    )


class TestScalarBoundsHandChecked:
    """Target {0, 1, 3} against the fixture scheme: r = (2, 1, 0), r = 1."""

    R_VEC = np.array([2, 1, 0])

    def test_match_bound_all_active(self):
        # bit=1 everywhere: sum of r_j.
        assert optimistic_matches(self.R_VEC, [1, 1, 1], 1) == 3

    def test_match_bound_all_inactive(self):
        # bit=0: min(r-1, r_j) = min(0, r_j) = 0 everywhere.
        assert optimistic_matches(self.R_VEC, [0, 0, 0], 1) == 0

    def test_match_bound_mixed(self):
        assert optimistic_matches(self.R_VEC, [1, 0, 0], 1) == 2

    def test_distance_bound_all_active(self):
        # bit=1: max(0, r - r_j) = (0, 0, 1).
        assert optimistic_distance(self.R_VEC, [1, 1, 1], 1) == 1

    def test_distance_bound_all_inactive(self):
        # bit=0: max(0, r_j - r + 1) = (2, 1, 0).
        assert optimistic_distance(self.R_VEC, [0, 0, 0], 1) == 3

    def test_distance_bound_mixed(self):
        assert optimistic_distance(self.R_VEC, [0, 1, 1], 1) == 2 + 0 + 1

    def test_higher_threshold(self):
        # r = 2: bit=0 -> max(0, r_j - 1) = (1, 0, 0);
        #        bit=1 -> max(0, 2 - r_j) = (0, 1, 2).
        assert optimistic_distance(self.R_VEC, [0, 0, 0], 2) == 1
        assert optimistic_distance(self.R_VEC, [1, 1, 1], 2) == 3
        # matches: bit=0 -> min(1, r_j) = (1, 1, 0); bit=1 -> r_j.
        assert optimistic_matches(self.R_VEC, [0, 0, 0], 2) == 2
        assert optimistic_matches(self.R_VEC, [1, 1, 1], 2) == 3


class TestBoundValidityExhaustive:
    """For a tiny universe, enumerate *all* transactions in an entry and
    check the bounds dominate the true values."""

    def test_bounds_dominate_all_members(self, scheme):
        from itertools import combinations

        universe = list(range(8))
        all_transactions = [
            frozenset(c)
            for size in range(0, 5)
            for c in combinations(universe, size)
        ]
        target = frozenset({0, 1, 3})
        r_vec = scheme.activation_counts(target)
        for candidate in all_transactions:
            bits = scheme.supercoordinate_bits(candidate)
            m_opt = optimistic_matches(r_vec, bits, 1)
            d_opt = optimistic_distance(r_vec, bits, 1)
            x = len(target & candidate)
            y = len(target ^ candidate)
            assert x <= m_opt, (candidate, bits)
            assert y >= d_opt, (candidate, bits)


def single(scheme, target):
    """The bound calculator for one target: a batch of one."""
    return BatchBoundCalculator(scheme, [as_item_array(target)])


#: Every supercoordinate of the three-signature fixture scheme, by code.
ALL_BITS = np.array(
    [[(code >> j) & 1 for j in range(3)] for code in range(8)], dtype=bool
)


class TestBoundCalculator:
    """:class:`BatchBoundCalculator` on one target, against the scalar
    reference and hand-checked values."""

    def test_agrees_with_scalar_functions(self, scheme):
        target = [0, 1, 3, 6]
        r_vec = scheme.activation_counts(target)
        m_opts, d_opts = single(scheme, target).bounds(ALL_BITS)
        for code in range(8):
            assert m_opts[0, code] == optimistic_matches(r_vec, ALL_BITS[code], 1)
            assert d_opts[0, code] == optimistic_distance(r_vec, ALL_BITS[code], 1)

    def test_activation_counts_property(self, scheme):
        """Precomputed activation counts stand in for the scheme's."""
        counts = scheme.activation_counts([0, 1, 3])
        assert counts.tolist() == [2, 1, 0]
        given = BatchBoundCalculator(
            scheme, [as_item_array([0, 1, 3])], activation_counts=counts[None, :]
        )
        np.testing.assert_array_equal(
            given.bounds(ALL_BITS), single(scheme, [0, 1, 3]).bounds(ALL_BITS)
        )

    def test_optimistic_similarity_applies_function(self, scheme):
        calculator = single(scheme, [0, 1, 3])
        bits = np.array([[1, 1, 1], [0, 0, 0]], dtype=bool)
        sim = HammingSimilarity()
        (values,) = calculator.optimistic_similarity(bits, [sim])
        (m,), (d,) = calculator.bounds(bits)
        assert values.tolist() == pytest.approx(
            [float(sim.evaluate(mi, di)) for mi, di in zip(m, d)]
        )

    def test_respects_scheme_threshold(self):
        scheme_r2 = SignatureScheme(
            [[0, 1, 2], [3, 4, 5]], universe_size=6, activation_threshold=2
        )
        bits = np.array([[0, 0]], dtype=float)
        m, d = single(scheme_r2, [0, 1, 3]).bounds(bits)
        # bit=0, r=2: matches min(1, r_j) = (1, 1); distance max(0, r_j-1) = (1, 0).
        assert m[0, 0] == 2
        assert d[0, 0] == 1

    def test_empty_target(self, scheme):
        bits = np.array([[1, 1, 1], [0, 0, 0]], dtype=bool)
        m, d = single(scheme, []).bounds(bits)
        assert m.tolist() == [[0.0, 0.0]]
        # bit=1 forces >= r items the target lacks: distance >= 1 per bit.
        assert d.tolist() == [[3.0, 0.0]]

    def test_bounds_dominate_on_real_table(
        self, medium_table, medium_indexed, medium_queries
    ):
        """On a real table, the optimistic bound must dominate the true
        similarity of every indexed transaction, for every entry."""
        scheme = medium_table.scheme
        target = medium_queries[0]
        target_set = frozenset(target)
        sim = MatchRatioSimilarity().bind(len(target))
        (opts,) = single(scheme, target).optimistic_similarity(
            medium_table.bits_matrix, [sim]
        )
        for entry in range(0, medium_table.num_entries_occupied, 7):
            for tid in medium_table.entry_tids(entry):
                other = medium_indexed[int(tid)]
                x = len(target_set & other)
                y = len(target_set ^ other)
                actual = float(sim.evaluate(x, y))
                assert actual <= opts[entry] + 1e-9
