"""Property tests for the sketch candidate tier (:mod:`repro.sketch`).

Four contracts:

* **Determinism** — signatures are a pure function of
  ``(num_hashes, universe_size, seed)``: byte-identical across hasher
  instances, between ``sign`` and ``sign_batch``, and across *processes*
  (nothing depends on Python's randomised ``hash()`` or interpreter
  state, which WAL replay and multi-shard signing rely on).
* **Concentration** — the slot-agreement Jaccard estimator lands near
  the true Jaccard within the binomial tolerance of the signature width.
* **Monotonicity** — raising ``target_recall`` can only widen the
  candidate set: more bands are probed and buckets are only ever added.
* **Exact-tier identity** — attaching a sketch changes nothing for
  ``candidate_tier="exact"`` on either scan: the engine and the searcher
  over a sketched table answer as the searcher over the plain one, down
  to the wire encoding of the stats.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import QueryEngine
from repro.core.partitioning import partition_items
from repro.core.search import SignatureTableSearcher
from repro.core.similarity import JaccardSimilarity, MatchRatioSimilarity
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase
from repro.service.protocol import encode_search_stats


def wire_stats(stats):
    """Deterministic wire encoding (latency is wall-clock; drop it)."""
    payload = encode_search_stats(stats)
    payload.pop("latency_ms", None)
    return json.dumps(payload, sort_keys=True)
from repro.sketch import (
    SIGNATURE_SENTINEL,
    BandIndex,
    SketchIndex,
    SuperMinHasher,
)


def random_db(rng, n=80, universe=120):
    rows = [
        np.sort(
            rng.choice(universe, size=int(rng.integers(1, 14)), replace=False)
        )
        for _ in range(n)
    ]
    return TransactionDatabase(rows, universe_size=universe)


class TestDeterminism:
    @given(
        seed=st.integers(0, 2**63 - 1),
        num_hashes=st.integers(4, 96),
        universe=st.integers(8, 300),
    )
    @settings(max_examples=40, deadline=None)
    def test_equal_parameters_equal_signatures(self, seed, num_hashes, universe):
        rng = np.random.default_rng(seed % 2**32)
        items = np.sort(
            rng.choice(universe, size=int(rng.integers(0, universe // 2 + 1)),
                       replace=False)
        )
        a = SuperMinHasher(num_hashes, universe, seed=seed)
        b = SuperMinHasher(num_hashes, universe, seed=seed)
        assert np.array_equal(a.sign(items), b.sign(items))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sign_batch_matches_sign(self, seed):
        rng = np.random.default_rng(seed)
        db = random_db(rng, n=30, universe=90)
        hasher = SuperMinHasher(32, 90, seed=seed)
        batch = hasher.sign_batch(db)
        for tid in range(len(db)):
            assert np.array_equal(batch[tid], hasher.sign(db[tid]))
        # A plain sequence of targets (a query batch; one may be empty)
        # signs to the same rows as one `sign` per target.
        targets = [sorted(db[tid]) for tid in range(0, len(db), 3)] + [[]]
        signed = hasher.sign_batch(targets)
        assert signed.shape == (len(targets), 32)
        for row, target in zip(signed, targets):
            assert np.array_equal(row, hasher.sign(target))
        assert hasher.sign_batch([]).shape == (0, 32)

    def test_different_seeds_differ(self):
        items = list(range(0, 40, 3))
        a = SuperMinHasher(64, 100, seed=1).sign(items)
        b = SuperMinHasher(64, 100, seed=2).sign(items)
        assert not np.array_equal(a, b)

    def test_empty_transaction_is_all_sentinel(self):
        signature = SuperMinHasher(16, 50, seed=0).sign([])
        assert np.all(signature == SIGNATURE_SENTINEL)

    def test_cross_process_determinism(self):
        """A fresh interpreter (different PYTHONHASHSEED) signs the same
        database to the same bytes — the WAL-replay contract."""
        script = (
            "import numpy as np\n"
            "from repro.sketch import SuperMinHasher\n"
            "from repro.data.transaction import TransactionDatabase\n"
            "rng = np.random.default_rng(5)\n"
            "rows = [np.sort(rng.choice(120, size=int(rng.integers(1, 14)),"
            " replace=False)) for _ in range(80)]\n"
            "db = TransactionDatabase(rows, universe_size=120)\n"
            "sigs = SuperMinHasher(48, 120, seed=9).sign_batch(db)\n"
            "print(sigs.tobytes().hex())\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "12345"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        rng = np.random.default_rng(5)
        db = random_db(rng, n=80, universe=120)
        local = SuperMinHasher(48, 120, seed=9).sign_batch(db)
        assert out.stdout.strip() == local.tobytes().hex()


class TestConcentration:
    @given(seed=st.integers(0, 2**32 - 1))
    # Fixed examples: 60 items leave most of the 256 bins to densification,
    # so about 1 draw in 1000 lands outside the tolerance (18 of 20000
    # seeds measured) and random examples fail a run in 40.
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_estimate_within_binomial_tolerance(self, seed):
        """One pair, 256 hashes: the estimate stays within ~5 sigma of
        the true Jaccard (sigma <= sqrt(0.25/256) ~= 0.031)."""
        rng = np.random.default_rng(seed)
        universe = 400
        left = np.unique(rng.integers(0, universe, size=60))
        right = np.unique(
            np.concatenate([left[:: int(rng.integers(1, 4))],
                            rng.integers(0, universe, size=40)])
        )
        true_j = np.intersect1d(left, right).size / np.union1d(left, right).size
        hasher = SuperMinHasher(256, universe, seed=7)
        estimate = SuperMinHasher.estimate_jaccard(
            hasher.sign(left), hasher.sign(right)
        )
        assert estimate == pytest.approx(true_j, abs=0.17)

    def test_mean_error_is_small(self):
        """Averaged over many pairs the estimator is nearly unbiased."""
        rng = np.random.default_rng(3)
        universe = 300
        hasher = SuperMinHasher(128, universe, seed=0)
        errors = []
        for _ in range(40):
            left = np.unique(rng.integers(0, universe, size=50))
            right = np.unique(
                np.concatenate([left[::2], rng.integers(0, universe, size=30)])
            )
            true_j = (
                np.intersect1d(left, right).size
                / np.union1d(left, right).size
            )
            errors.append(
                SuperMinHasher.estimate_jaccard(
                    hasher.sign(left), hasher.sign(right)
                )
                - true_j
            )
        assert abs(float(np.mean(errors))) < 0.05


class TestMonotonicity:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_candidates_grow_with_target_recall(self, seed):
        rng = np.random.default_rng(seed)
        db = random_db(rng, n=60, universe=100)
        sketch = SketchIndex.build(db, num_hashes=64, num_bands=16,
                                   rows_per_band=2, seed=1)
        target = db[int(rng.integers(0, len(db)))]
        previous = None
        previous_bands = 0
        for recall in (0.5, 0.8, 0.9, 0.95, 0.99):
            probe = sketch.probe(target, recall)
            assert probe.bands_probed >= previous_bands
            current = set(probe.candidates.tolist())
            if previous is not None:
                assert current >= previous, (
                    f"target_recall={recall} shrank the candidate set"
                )
            previous, previous_bands = current, probe.bands_probed

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_band_index_superset_in_band_budget(self, seed):
        rng = np.random.default_rng(seed)
        signatures = rng.integers(
            0, 4, size=(40, 24), dtype=np.int64
        ).astype(np.uint32)
        bands = BandIndex(signatures, num_bands=8, rows_per_band=3)
        probe_sig = signatures[int(rng.integers(0, 40))]
        previous = set()
        for budget in range(1, 9):
            current = set(bands.candidates(probe_sig, budget).tolist())
            assert current >= previous
            previous = current

    def test_self_always_candidate_at_full_budget(self):
        rng = np.random.default_rng(11)
        db = random_db(rng, n=50, universe=80)
        sketch = SketchIndex.build(db, num_hashes=64, num_bands=32,
                                   rows_per_band=2, seed=0)
        for tid in range(0, 50, 7):
            probe = sketch.probe(db[tid], 0.999)
            assert tid in probe.candidates.tolist()


#: The scan under test: the engine's packed kernels, or the scalar loop
#: of :class:`SignatureTableSearcher` (``repro explain``, the ablations).
SCANS = ["packed", "python"]


class TestExactTierIdentity:
    @pytest.fixture(scope="class")
    def corpus(self):
        rng = np.random.default_rng(29)
        db = random_db(rng, n=120, universe=100)
        scheme = partition_items(db, num_signatures=6, rng=0)
        plain = SignatureTable.build(db, scheme)
        sketched = SignatureTable.build(db, scheme)
        sketched.attach_sketch(SketchIndex.build(db, num_hashes=64, seed=3))
        targets = [
            np.sort(rng.choice(100, size=6, replace=False)) for _ in range(8)
        ]
        return db, plain, sketched, targets

    @pytest.mark.parametrize("scan", SCANS)
    def test_exact_results_and_wire_stats_identical(self, corpus, scan):
        db, plain, sketched, targets = corpus
        similarity = MatchRatioSimilarity()
        if scan == "packed":
            results, stats = QueryEngine.for_table(sketched, db).knn_batch(
                targets, similarity, k=5, candidate_tier="exact"
            )
        else:
            searcher = SignatureTableSearcher(sketched, db)
            results, stats = zip(
                *(searcher.knn(target, similarity, k=5) for target in targets)
            )
        oracle = SignatureTableSearcher(plain, db)
        for target, hits, query_stats in zip(targets, results, stats):
            want, want_stats = oracle.knn(target, similarity, k=5)
            assert hits == want
            assert wire_stats(query_stats) == wire_stats(want_stats)

    @pytest.mark.parametrize("scan", SCANS)
    def test_exact_range_identical(self, corpus, scan):
        db, plain, sketched, targets = corpus
        similarity = JaccardSimilarity()
        if scan == "packed":
            results, stats = QueryEngine.for_table(sketched, db).range_query_batch(
                targets, similarity, threshold=0.3
            )
        else:
            searcher = SignatureTableSearcher(sketched, db)
            results, stats = zip(
                *(searcher.range_query(target, similarity, 0.3) for target in targets)
            )
        oracle = SignatureTableSearcher(plain, db)
        for target, hits, query_stats in zip(targets, results, stats):
            want, want_stats = oracle.range_query(target, similarity, 0.3)
            assert hits == want
            assert wire_stats(query_stats) == wire_stats(want_stats)
