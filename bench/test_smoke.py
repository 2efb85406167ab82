"""Smoke test of the benchmark: `pytest bench/test_smoke.py` (about 30 s).

Runs all five workloads untraced and one traced with `--smoke`
(T5.I3.D2K, 2 s) and asserts that every metric BENCHMARK.json names is
printed with its unit, that the oracle passed and that nothing failed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Per-layer metrics that the traced run must have measured (n > 0).
MEASURED = ["service.batcher.queue_wait_ms", "core.engine.run_batch_ms",
            "service.server.self_ms", "service.protocol.ok_response_us"]


def run(workload, trace, out_dir):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
         "--trace", str(trace), "--smoke", "--out-dir", str(out_dir)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    suffix = "traced" if trace else "untraced"
    record = json.loads((out_dir / f"{workload}-seed7-{suffix}.json").read_text(encoding="utf-8"))
    return line, record


def check(line, kind):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC[kind]]
    for metric in SPEC[kind]:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced(workload, tmp_path):
    line, record = run(workload, 0, tmp_path)
    check(line, "end_to_end")
    for name, metric in line["metrics"].items():
        assert metric["value"] > 0, name
    for metric in record["metrics"].values():
        assert {"value", "unit", "median", "q1", "q3", "n"} <= set(metric)


def test_traced(tmp_path):
    line, record = run("serve_wire", 1, tmp_path)
    check(line, "per_layer")
    assert 0.9 <= line["metrics"]["bench.layer_sum_frac"]["value"] <= 1.1
    for name in MEASURED:
        assert record["metrics"][name]["n"] > 0, name


def test_oracle_agrees_with_linear_scan():
    """The numpy oracle of harness.py returns LinearScanIndex's answers."""
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import harness\n"
        "from repro import LinearScanIndex\n"
        "from repro.core.similarity import get_similarity\n"
        "corpus = harness.build_corpus(harness.SMALL_SPEC, harness.SMALL_K)\n"
        "scan = LinearScanIndex(corpus.db)\n"
        "for name in ('match_ratio', 'jaccard'):\n"
        "    sim = get_similarity(name)\n"
        "    for target in corpus.held_out(7, 0, 16):\n"
        "        want = [n.similarity for n in scan.knn(target, sim, k=10)[0]]\n"
        "        assert harness.top_k(corpus.db, target, sim, 10)[0].tolist() == want\n"
    ) % (str(BENCH_DIR), str(BENCH_DIR.parent / "src"))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
