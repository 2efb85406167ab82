"""Property tests for the Section 4.1 optimistic bounds.

The invariant everything rests on: for ANY partition of ANY universe, ANY
activation threshold, ANY database and ANY target, the entry bounds
dominate every indexed transaction —

    x(T, X) <= M_opt(entry(X))   and   y(T, X) >= D_opt(entry(X)),

and therefore ``f(x, y) <= f(M_opt, D_opt)`` for every monotone similarity
function (Lemma 2.1).  If this ever fails, branch-and-bound pruning is
unsound.  The summary bound must dominate every row too and never exceed
the paper's bound; a batch's row q must be the batch of target q alone
bit for bit, and under the paper's bound the scalar reference's
``f(M_opt, D_opt)``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    BatchBoundCalculator,
    optimistic_distance,
    optimistic_matches,
)
from repro.core.signature import SignatureScheme
from repro.core.similarity import SIMILARITY_FUNCTIONS, CustomSimilarity
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase
from tests.conftest import make_similarities


@st.composite
def indexing_instances(draw):
    """A random (scheme, db, target) triple over a small universe."""
    universe_size = draw(st.integers(min_value=4, max_value=14))
    num_signatures = draw(st.integers(min_value=2, max_value=min(4, universe_size)))
    threshold = draw(st.integers(min_value=1, max_value=2))
    # Random partition: assign each item a signature, forcing non-empty.
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_signatures - 1),
            min_size=universe_size,
            max_size=universe_size,
        )
    )
    for sig in range(num_signatures):
        assignment[sig % universe_size] = sig
    signatures = [
        [item for item, s in enumerate(assignment) if s == sig]
        for sig in range(num_signatures)
    ]
    signatures = [s for s in signatures if s]
    scheme = SignatureScheme(
        signatures, universe_size=universe_size, activation_threshold=threshold
    )

    transaction = st.lists(
        st.integers(min_value=0, max_value=universe_size - 1),
        min_size=1,
        max_size=universe_size,
    )
    rows = draw(st.lists(transaction, min_size=2, max_size=20))
    db = TransactionDatabase(rows, universe_size=universe_size)
    target = draw(transaction)
    return scheme, db, sorted(set(target))


@settings(max_examples=60, deadline=None)
@given(indexing_instances())
def test_bounds_dominate_every_indexed_transaction(instance):
    scheme, db, target = instance
    table = SignatureTable.build(db, scheme)
    r_vec = scheme.activation_counts(target)
    target_set = frozenset(target)
    r = scheme.activation_threshold
    for entry in range(table.num_entries_occupied):
        bits = table.bits_matrix[entry]
        m_opt = optimistic_matches(r_vec, bits, r)
        d_opt = optimistic_distance(r_vec, bits, r)
        for tid in table.entry_tids(entry):
            other = db[int(tid)]
            x = len(target_set & other)
            y = len(target_set ^ other)
            assert x <= m_opt
            assert y >= d_opt


@settings(max_examples=30, deadline=None)
@given(indexing_instances())
def test_lemma_21_holds_for_every_similarity(instance):
    """f(M_opt, D_opt) upper-bounds f(x, y) for all shipped functions."""
    scheme, db, target = instance
    table = SignatureTable.build(db, scheme)
    r_vec = scheme.activation_counts(target)
    r = scheme.activation_threshold
    target_set = frozenset(target)
    sims = [s.bind(len(target_set)) for s in make_similarities()]
    for entry in range(table.num_entries_occupied):
        bits = table.bits_matrix[entry]
        m_opt = optimistic_matches(r_vec, bits, r)
        d_opt = optimistic_distance(r_vec, bits, r)
        for tid in table.entry_tids(entry):
            other = db[int(tid)]
            x = len(target_set & other)
            y = len(target_set ^ other)
            for sim in sims:
                actual = float(sim.evaluate(x, y))
                bound = float(sim.evaluate(m_opt, d_opt))
                if np.isinf(actual):
                    assert np.isinf(bound)
                else:
                    assert actual <= bound + 1e-9, (
                        sim,
                        (x, y),
                        (m_opt, d_opt),
                    )


@settings(max_examples=60, deadline=None)
@given(indexing_instances())
def test_identical_transaction_has_tight_bounds(instance):
    """An entry containing the target itself must allow x = |T|, y = 0."""
    scheme, db, target = instance
    if not target:
        return
    # Force the target into the database.
    rows = [sorted(db[t]) for t in range(len(db))] + [target]
    db2 = TransactionDatabase(rows, universe_size=db.universe_size)
    table = SignatureTable.build(db2, scheme)
    entry = table.entry_for(target)
    assert entry >= 0
    r_vec = scheme.activation_counts(target)
    bits = table.bits_matrix[entry]
    assert optimistic_matches(r_vec, bits, scheme.activation_threshold) >= len(
        target
    )
    assert optimistic_distance(r_vec, bits, scheme.activation_threshold) == 0


# ----------------------------------------------------------------------
# The summary bound (EntrySummary): Lemma 2.1 over each entry's OR / AND
# of items and row-length range, tightened from the paper's (M_opt, D_opt).
# ----------------------------------------------------------------------
_MONOTONE_FAMILIES = (
    lambda a, b: lambda x, y: a * np.asarray(x, float) - b * np.asarray(y, float),
    lambda a, b: lambda x, y: (np.asarray(x, float) + a)
    / (np.asarray(x, float) + np.asarray(y, float) + a + b),
    lambda a, b: lambda x, y: np.sqrt(np.asarray(x, float)) / (1.0 + b * np.asarray(y, float))
    + a,
    lambda a, b: lambda x, y: np.minimum(np.asarray(x, float), a + 1.0)
    - np.maximum(np.asarray(y, float), b),
)


@st.composite
def summary_instances(draw):
    """A random indexing instance at threshold r in 1..3, a batch of
    targets, and the built-in similarities plus random monotone ones."""
    scheme, db, target = draw(indexing_instances())
    scheme = scheme.with_activation_threshold(draw(st.integers(1, 3)))
    extra = draw(
        st.lists(
            st.lists(st.integers(0, db.universe_size - 1), min_size=1, max_size=8),
            min_size=0,
            max_size=3,
        )
    )
    targets = [target] + [sorted(set(t)) for t in extra]
    customs = [
        CustomSimilarity(
            _MONOTONE_FAMILIES[family](a, b), name=f"family{family}", validate=False
        )
        for family, a, b in draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(_MONOTONE_FAMILIES) - 1),
                    st.floats(0.1, 4.0),
                    st.floats(0.1, 4.0),
                ),
                min_size=1,
                max_size=3,
            )
        )
    ]
    sims = [factory() for factory in SIMILARITY_FUNCTIONS.values()] + customs
    return scheme, db, targets, sims


def _at_most(value, bound):
    return value <= bound + 1e-9  # inf <= inf holds; NaN fails


@settings(max_examples=60, deadline=None)
@given(summary_instances())
def test_summary_bound_dominates_rows_and_tightens_the_paper_bound(instance):
    scheme, db, targets, sims = instance
    table = SignatureTable.build(db, scheme)
    summary = table.summary(db)
    bits = table.bits_matrix
    for target in targets:
        calculator = BatchBoundCalculator(scheme, [np.asarray(target, np.int64)])
        target_set = frozenset(target)
        for sim in sims:
            bound_sim = sim.bind(len(target_set))
            paper = calculator.optimistic_similarity(bits, [bound_sim])[0]
            tight = calculator.optimistic_similarity(bits, [bound_sim], summary)[0]
            for entry in range(table.num_entries_occupied):
                assert _at_most(tight[entry], paper[entry]), (sim, entry)
                for tid in table.entry_tids(entry):
                    other = db[int(tid)]
                    actual = float(
                        bound_sim.evaluate(
                            len(target_set & other), len(target_set ^ other)
                        )
                    )
                    assert _at_most(actual, tight[entry]), (sim, entry, int(tid))


@settings(max_examples=40, deadline=None)
@given(summary_instances())
def test_batch_summary_bounds_equal_the_per_query_calculator(instance):
    """Row q of a Q-target batch is the one-target batch of target q,
    with and without the summary; without it, every entry is ``f`` of
    the scalar :func:`optimistic_matches` / :func:`optimistic_distance`."""
    scheme, db, targets, sims = instance
    table = SignatureTable.build(db, scheme)
    summary = table.summary(db)
    bits = table.bits_matrix
    r = scheme.activation_threshold
    arrays = [np.asarray(t, dtype=np.int64) for t in targets]
    batch = BatchBoundCalculator(scheme, arrays)
    for sim in sims:
        bound_sims = [sim.bind(t.size) for t in arrays]
        for chosen in (None, summary):
            matrix = batch.optimistic_similarity(bits, bound_sims, chosen)
            for q, target in enumerate(arrays):
                single = BatchBoundCalculator(scheme, [target]).optimistic_similarity(
                    bits, [bound_sims[q]], chosen
                )
                np.testing.assert_array_equal(matrix[q], single[0])
                if chosen is None:
                    counts = scheme.activation_counts(target)
                    scalar = np.array([
                        (optimistic_matches(counts, row, r),
                         optimistic_distance(counts, row, r))
                        for row in bits
                    ], dtype=np.float64)
                    np.testing.assert_array_equal(
                        matrix[q], bound_sims[q].evaluate(scalar[:, 0], scalar[:, 1])
                    )
