"""Smoke tests for the example scripts.

Each example is executed in a subprocess and must exit 0 with its key
output lines present.  The examples generate tens of thousands of
transactions; the five take about ten seconds together.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


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
        assert "learned 13 signatures" in output
        assert "hit rate" in output
