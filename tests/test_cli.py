"""Tests for the command-line interface."""

import json

import pytest

import repro
from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "db.npz"
    code = main(
        [
            "generate",
            "T8.I4.D400",
            str(path),
            "--seed",
            "5",
            "--num-items",
            "120",
            "--num-patterns",
            "50",
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def table_path(dataset_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "table.npz"
    code = main(["build", str(dataset_path), str(path), "-K", "8", "--seed", "1"])
    assert code == 0
    return path


class TestParser:
    def test_subcommands_present(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ["generate", "stats", "build", "query", "serve", "client"]:
            assert command in text

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestGenerate:
    def test_npz_output(self, dataset_path, capsys):
        db = repro.TransactionDatabase.load(dataset_path)
        assert len(db) == 400
        assert db.universe_size == 120

    def test_text_output(self, tmp_path):
        path = tmp_path / "db.txt"
        code = main(
            [
                "generate",
                "T5.I3.D50",
                str(path),
                "--num-items",
                "40",
                "--num-patterns",
                "10",
            ]
        )
        assert code == 0
        from repro.data.io import read_text

        assert len(read_text(path)) == 50

    def test_bad_spec_exit_code(self, tmp_path, capsys):
        code = main(["generate", "NOT-A-SPEC", str(tmp_path / "x.npz")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_progress_message(self, tmp_path, capsys):
        main(
            [
                "generate",
                "T5.I3.D30",
                str(tmp_path / "y.npz"),
                "--num-items",
                "40",
                "--num-patterns",
                "10",
            ]
        )
        assert "wrote 30 transactions" in capsys.readouterr().out


class TestStats:
    def test_prints_key_figures(self, dataset_path, capsys):
        assert main(["stats", str(dataset_path)]) == 0
        output = capsys.readouterr().out
        assert "num_transactions" in output
        assert "density" in output

    def test_missing_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.npz")]) == 2


class TestBuild:
    def test_reports_table_shape(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "t.npz"
        assert main(["build", str(dataset_path), str(out), "-K", "6"]) == 0
        output = capsys.readouterr().out
        assert "K=6" in output
        assert out.exists()

    def test_activation_threshold_flag(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "t.npz"
        code = main(
            ["build", str(dataset_path), str(out), "-K", "6", "-r", "2"]
        )
        assert code == 0
        assert "r=2" in capsys.readouterr().out


class TestAdvise:
    def test_prints_recommendation(self, dataset_path, capsys):
        assert main(["advise", str(dataset_path)]) == 0
        output = capsys.readouterr().out
        assert "K=" in output and "r=" in output
        assert "repro build" in output

    def test_memory_budget_flag(self, dataset_path, capsys):
        assert main(["advise", str(dataset_path), "--memory", "1024"]) == 0
        output = capsys.readouterr().out
        # 8 * 2^K <= 1024 -> K <= 7.
        assert "K=7" in output or "K=6" in output or "K=5" in output


class TestQuery:
    def test_knn_output(self, dataset_path, table_path, capsys):
        code = main(
            [
                "query",
                str(dataset_path),
                str(table_path),
                "1",
                "5",
                "9",
                "--similarity",
                "jaccard",
                "--k",
                "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "#1" in output
        assert "jaccard=" in output
        assert "pruned" in output

    def test_knn_matches_library(self, dataset_path, table_path, capsys):
        main(
            [
                "query",
                str(dataset_path),
                str(table_path),
                "1",
                "5",
                "9",
                "--similarity",
                "jaccard",
                "--k",
                "1",
            ]
        )
        first_line = capsys.readouterr().out.splitlines()[0]
        db = repro.TransactionDatabase.load(dataset_path)
        best = repro.LinearScanIndex(db).best_similarity(
            [1, 5, 9], repro.JaccardSimilarity()
        )
        assert f"jaccard={best:.4f}" in first_line

    def test_early_termination_flag(self, dataset_path, table_path, capsys):
        code = main(
            [
                "query",
                str(dataset_path),
                str(table_path),
                "1",
                "5",
                "--early-termination",
                "0.05",
            ]
        )
        assert code == 0

    def test_range_query(self, dataset_path, table_path, capsys):
        code = main(
            [
                "query",
                str(dataset_path),
                str(table_path),
                "1",
                "5",
                "9",
                "--similarity",
                "jaccard",
                "--threshold",
                "0.2",
            ]
        )
        assert code == 0
        assert "jaccard >= 0.2" in capsys.readouterr().out

    def test_unknown_similarity_rejected(self, dataset_path, table_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "query",
                    str(dataset_path),
                    str(table_path),
                    "1",
                    "--similarity",
                    "euclidean",
                ]
            )


class TestQueryBatch:
    @pytest.fixture(scope="class")
    def queries_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "queries.txt"
        path.write_text("# holdout queries\n1 5 9\n2 7\n\n0 3 11 20\n")
        return path

    def test_knn_batch_output(self, dataset_path, table_path, queries_path, capsys):
        code = main(
            [
                "query-batch",
                str(dataset_path),
                str(table_path),
                str(queries_path),
                "--similarity",
                "jaccard",
                "--k",
                "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "query 0" in output
        assert "query 2" in output
        assert "3 queries in" in output
        assert "queries/sec" in output

    def test_batch_matches_single_query_cli(
        self, dataset_path, table_path, queries_path, capsys
    ):
        main(
            [
                "query-batch",
                str(dataset_path),
                str(table_path),
                str(queries_path),
                "--similarity",
                "jaccard",
                "--k",
                "1",
            ]
        )
        batch_lines = capsys.readouterr().out.splitlines()
        main(
            [
                "query",
                str(dataset_path),
                str(table_path),
                "1",
                "5",
                "9",
                "--similarity",
                "jaccard",
                "--k",
                "1",
            ]
        )
        single_first = capsys.readouterr().out.splitlines()[0]
        # "#1   tid=T ... jaccard=V ..." vs "query 0    T:V"
        tid = single_first.split("tid=")[1].split()[0]
        value = single_first.split("jaccard=")[1].split()[0]
        assert f"{tid}:{value}" in batch_lines[0]

    def test_threshold_mode(self, dataset_path, table_path, queries_path, capsys):
        code = main(
            [
                "query-batch",
                str(dataset_path),
                str(table_path),
                str(queries_path),
                "--threshold",
                "0.2",
            ]
        )
        assert code == 0

    def test_threshold_mode_prints_every_hit(
        self, dataset_path, table_path, queries_path, capsys
    ):
        """A range answer is not cut to the kNN default ``--k`` of 5."""
        db = repro.TransactionDatabase.load(dataset_path)
        engine = repro.QueryEngine.for_table(
            repro.SignatureTable.load(table_path), db
        )
        queries = [[1, 5, 9], [2, 7], [0, 3, 11, 20]]
        want, _ = engine.range_query_batch(
            queries, repro.JaccardSimilarity(), 0.05
        )
        assert max(len(hits) for hits in want) > 5
        argv = [
            "query-batch",
            str(dataset_path),
            str(table_path),
            str(queries_path),
            "--similarity",
            "jaccard",
            "--threshold",
            "0.05",
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        for index, hits in enumerate(want):
            shown = lines[index].split()[2:]
            assert [int(pair.split(":")[0]) for pair in shown] == [
                nb.tid for nb in hits
            ]
        assert "workers" not in lines[len(want)]
        assert main(argv + ["--output", "json"]) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert [len(r["results"]) for r in records] == [len(h) for h in want]

    def test_early_termination_summary(
        self, dataset_path, table_path, queries_path, capsys
    ):
        code = main(
            [
                "query-batch",
                str(dataset_path),
                str(table_path),
                str(queries_path),
                "--early-termination",
                "0.01",
            ]
        )
        assert code == 0

    def test_empty_query_file_errors(self, dataset_path, table_path, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing here\n")
        code = main(
            [
                "query-batch",
                str(dataset_path),
                str(table_path),
                str(empty),
            ]
        )
        assert code == 2
        assert "no queries" in capsys.readouterr().err

    def test_json_output_is_ndjson_on_stdout(
        self, dataset_path, table_path, queries_path, capsys
    ):
        code = main(
            [
                "query-batch",
                str(dataset_path),
                str(table_path),
                str(queries_path),
                "--similarity",
                "jaccard",
                "--k",
                "2",
                "--output",
                "json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 3  # one object per query, nothing else
        for index, line in enumerate(lines):
            record = json.loads(line)
            assert record["query"] == index
            assert isinstance(record["items"], list)
            assert len(record["results"]) <= 2
            for entry in record["results"]:
                assert set(entry) == {"tid", "similarity"}
        # The human summary moves to stderr so pipelines stay clean.
        assert "queries/sec" in captured.err
        assert "queries/sec" not in captured.out

    def test_json_output_matches_library_results(
        self, dataset_path, table_path, queries_path, capsys
    ):
        main(
            [
                "query-batch",
                str(dataset_path),
                str(table_path),
                str(queries_path),
                "--similarity",
                "jaccard",
                "--k",
                "3",
                "-o",
                "json",
            ]
        )
        lines = capsys.readouterr().out.splitlines()
        db = repro.TransactionDatabase.load(str(dataset_path))
        table = repro.SignatureTable.load(str(table_path))
        engine = repro.QueryEngine.for_table(table, db)
        queries = [json.loads(line)["items"] for line in lines]
        expected, _ = engine.knn_batch(queries, repro.JaccardSimilarity(), k=3)
        for line, want in zip(lines, expected):
            got = json.loads(line)["results"]
            assert got == [
                {"tid": nb.tid, "similarity": nb.similarity} for nb in want
            ]


class TestExperiment:
    def test_fig6_miniature(self, capsys, tmp_path):
        code = main(
            [
                "experiment",
                "fig6",
                "--db-sizes",
                "500",
                "1000",
                "--ks",
                "6",
                "--queries",
                "8",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Pruning efficiency" in output
        assert "K=6 prune%" in output
        assert (tmp_path / "fig6.txt").exists()

    def test_table1_miniature(self, capsys):
        code = main(
            [
                "experiment",
                "table1",
                "--db-sizes",
                "800",
                "--queries",
                "6",
            ]
        )
        assert code == 0
        assert "Inverted index" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])
