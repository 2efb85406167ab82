"""Smoke tests for the example scripts.

Each example is executed in a subprocess and must exit 0 with its key
output lines present.  The examples generate tens of thousands of
transactions, so the whole class takes a couple of minutes; set
``REPRO_RUN_EXAMPLE_TESTS=1`` to include it (CI does; the default unit
run skips).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_RUN_EXAMPLE_TESTS") != "1",
    reason="set REPRO_RUN_EXAMPLE_TESTS=1 to run the example smoke tests",
)


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "hamming: pruned" in output
        assert "Early termination @2%" in output

    def test_peer_recommendation(self):
        output = run_example("peer_recommendation.py")
        assert "Recommended items" in output
        assert "Household recommendations" in output

    def test_flexible_queries(self):
        output = run_example("flexible_queries.py")
        assert "rejected invalid function" in output
        assert "provably optimal" in output
        assert "inserted tid" in output

    def test_index_comparison(self):
        output = run_example("index_comparison.py")
        assert "sequential scan" in output
        assert "inverted index" in output

    def test_scaling_out(self):
        output = run_example("scaling_out.py")
        assert "hit rate" in output
