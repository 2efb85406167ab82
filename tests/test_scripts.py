"""Tests for the maintenance scripts (imported as modules, not subprocesses)."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare_results():
    return load_script("compare_results")


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestCompareResults:
    def test_identical_directories_ok(self, compare_results, tmp_path, capsys):
        old = tmp_path / "old"
        new = tmp_path / "new"
        old.mkdir()
        new.mkdir()
        for directory in (old, new):
            write_csv(directory / "a.csv", ["x", "y"], [[1, 2.0], [3, 4.0]])
        code = compare_results.main([str(old), str(new)])
        assert code == 0
        assert "ok    a.csv" in capsys.readouterr().out

    def test_drift_detected(self, compare_results, tmp_path, capsys):
        old = tmp_path / "old"
        new = tmp_path / "new"
        old.mkdir()
        new.mkdir()
        write_csv(old / "a.csv", ["x"], [[100.0]])
        write_csv(new / "a.csv", ["x"], [[150.0]])
        code = compare_results.main([str(old), str(new)])
        assert code == 1
        output = capsys.readouterr().out
        assert "DRIFT a.csv" in output
        assert "100 -> 150" in output

    def test_small_drift_within_tolerance(self, compare_results, tmp_path, capsys):
        old = tmp_path / "old"
        new = tmp_path / "new"
        old.mkdir()
        new.mkdir()
        write_csv(old / "a.csv", ["x"], [[100.0]])
        write_csv(new / "a.csv", ["x"], [[101.0]])
        assert compare_results.main([str(old), str(new)]) == 0

    def test_tolerance_flag(self, compare_results, tmp_path):
        old = tmp_path / "old"
        new = tmp_path / "new"
        old.mkdir()
        new.mkdir()
        write_csv(old / "a.csv", ["x"], [[100.0]])
        write_csv(new / "a.csv", ["x"], [[120.0]])
        assert (
            compare_results.main([str(old), str(new), "--tolerance", "0.5"])
            == 0
        )

    def test_missing_table_flagged(self, compare_results, tmp_path, capsys):
        old = tmp_path / "old"
        new = tmp_path / "new"
        old.mkdir()
        new.mkdir()
        write_csv(old / "a.csv", ["x"], [[1.0]])
        code = compare_results.main([str(old), str(new)])
        assert code == 1
        assert "gone  a.csv" in capsys.readouterr().out

    def test_new_table_reported_but_ok(self, compare_results, tmp_path, capsys):
        old = tmp_path / "old"
        new = tmp_path / "new"
        old.mkdir()
        new.mkdir()
        write_csv(new / "b.csv", ["x"], [[1.0]])
        code = compare_results.main([str(old), str(new)])
        assert code == 0
        assert "new   b.csv" in capsys.readouterr().out

    def test_text_cell_change_detected(self, compare_results, tmp_path, capsys):
        old = tmp_path / "old"
        new = tmp_path / "new"
        old.mkdir()
        new.mkdir()
        write_csv(old / "a.csv", ["method"], [["fast"]])
        write_csv(new / "a.csv", ["method"], [["slow"]])
        assert compare_results.main([str(old), str(new)]) == 1


class TestScaleTrendScript:
    def test_importable_and_has_main(self):
        module = load_script("scale_trend")
        assert callable(module.main)


class TestSummarizeResults:
    @pytest.fixture(scope="class")
    def summarize(self):
        return load_script("summarize_results")

    def test_summarises_figures(self, summarize, tmp_path, capsys):
        write_csv(
            tmp_path / "fig06_pruning_hamming.csv",
            ["db_size", "K=13 prune%", "K=15 prune%"],
            [[1000, 70.0, 75.0], [2000, 72.0, 78.5]],
        )
        write_csv(
            tmp_path / "table1_inverted_index.csv",
            [
                "avg_txn_size",
                "transactions accessed %",
                "analytic (independence) %",
                "pages touched %",
                "analytic pages %",
            ],
            [[5, 4.0, 4.5, 80.0, 85.0], [15, 22.0, 25.0, 99.0, 99.9]],
        )
        assert summarize.main([str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "78.5%" in output
        assert "22.0% of transactions" in output

    def test_missing_directory(self, summarize, tmp_path, capsys):
        assert summarize.main([str(tmp_path / "nope")]) == 2

    def test_empty_directory(self, summarize, tmp_path):
        assert summarize.main([str(tmp_path)]) == 1

    def test_real_results_directory(self, summarize, capsys):
        results = Path(__file__).resolve().parent.parent / "results"
        if not any(results.glob("*.csv")):
            pytest.skip("no benchmark results present")
        assert summarize.main([str(results)]) == 0


class TestCrashRecoverySmoke:
    def test_import_safe(self):
        module = load_script("crash_recovery_smoke")
        assert callable(module.main)

    def test_passes_end_to_end(self, capsys):
        module = load_script("crash_recovery_smoke")
        assert module.main(["--acks", "5"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_passes_with_faults(self, capsys):
        """``--with-faults`` imports the acknowledged-op oracle from
        ``tests/faults/chaos.py`` and sweeps seeded errfs schedules."""
        module = load_script("crash_recovery_smoke")
        assert module.main(["--acks", "5", "--with-faults", "--fault-seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 seeded fault schedules verified" in out
        assert "PASS" in out
