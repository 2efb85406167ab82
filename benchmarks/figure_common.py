"""Shared logic for the nine figure-family benchmarks (Figs 6-14).

Each paper figure is one of three experiment shapes applied to one of
three similarity functions; these helpers run the right harness function,
emit the result table, assert the paper's qualitative shape (with slack
for the small default profile), and provide the timing kernel.
"""

from repro.eval.harness import (
    run_accuracy_vs_termination,
    run_accuracy_vs_transaction_size,
    run_pruning_vs_db_size,
)


def check_pruning_shape(table, ks):
    """Paper shape for Figs 6/9/12: pruning efficiency is high, improves
    with K, and does not degrade with database size."""
    first, last = table.rows[0], table.rows[-1]
    for row in table.rows:
        for k in ks:
            assert 0.0 <= row[f"K={k} prune%"] <= 100.0
    # Finer partitions prune better (small slack for query noise).
    assert last[f"K={ks[-1]} prune%"] >= last[f"K={ks[0]} prune%"] - 2.0
    # Pruning improves (or at least holds) as the database grows.
    assert (
        last[f"K={ks[-1]} prune%"] >= first[f"K={ks[-1]} prune%"] - 3.0
    )


def check_termination_shape(table, ks):
    """Paper shape for Figs 7/10/13: accuracy grows with the termination
    budget and with K."""
    for k in ks:
        values = table.column(f"K={k} acc%")
        assert all(0.0 <= v <= 100.0 for v in values)
        assert values[-1] >= values[0] - 5.0
    # The K-direction of the accuracy trend needs paper-scale databases to
    # rise above query noise (~±6 % at 60 queries); allow generous slack
    # at quick scale.
    last = table.rows[-1]
    assert last[f"K={ks[-1]} acc%"] >= last[f"K={ks[0]} acc%"] - 15.0


def check_txn_size_shape(table):
    """Paper shape for Figs 8/11/14: accuracy degrades as transactions get
    longer (denser data)."""
    accuracies = table.column("accuracy%")
    assert all(0.0 <= v <= 100.0 for v in accuracies)
    assert accuracies[0] >= accuracies[-1] - 10.0


def run_pruning_figure(similarity, ctx, emit, timed, name):
    table = run_pruning_vs_db_size(similarity, ctx)
    emit(table, name)
    check_pruning_shape(table, ctx.profile["ks"])
    engine = ctx.engine(ctx.profile["large_spec"], ctx.profile["default_k"])
    target = ctx.queries(ctx.profile["large_spec"])[0]
    timed(lambda: engine.nearest_batch([target], similarity))
    return table


def run_termination_figure(similarity, ctx, emit, timed, name):
    table = run_accuracy_vs_termination(similarity, ctx)
    emit(table, name)
    check_termination_shape(table, ctx.profile["ks"])
    engine = ctx.engine(ctx.profile["large_spec"], ctx.profile["default_k"])
    target = ctx.queries(ctx.profile["large_spec"])[0]
    timed(
        lambda: engine.nearest_batch([target], similarity, early_termination=0.02)
    )
    return table


def run_txn_size_figure(similarity, ctx, emit, timed, name):
    table = run_accuracy_vs_transaction_size(similarity, ctx)
    emit(table, name)
    check_txn_size_shape(table)
    largest_t = ctx.profile["txn_sizes"][-1]
    spec = (
        f"T{largest_t:g}.I6.D{ctx.profile['txn_size_db']}"
    )
    engine = ctx.engine(spec, ctx.profile["default_k"])
    target = ctx.queries(spec)[0]
    timed(
        lambda: engine.nearest_batch([target], similarity, early_termination=0.02)
    )
    return table
