"""Tests for the command-line interface."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent


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


#: Flag surface of the parent of PR 24 (``26b80da``), written by
#: ``surface(build_parser())`` at that commit.
SURFACE_SNAPSHOT = Path(__file__).with_name("cli_surface.json")

#: The options removed on purpose since that snapshot; nothing else may
#: differ.
REMOVED_OPTIONS = {
    ("serve", "--kernel"),
    ("metrics", "--scope"),
    ("explain", "--sort-by"),
    ("serve", "--max-wait-ms"),
    ("node", "--max-wait-ms"),
    ("router", "--max-wait-ms"),
}


def surface(parser, prefix=""):
    """``{subcommand: {flag: record}}`` for every leaf subcommand.

    A flag is keyed by its first option string (positionals by dest); the
    record holds everything of the declaration that changes parsing, plus
    the help string, which is compared apart.
    """
    out = {}
    records = {}
    position = 0
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(surface(sub, f"{prefix}{name} "))
            continue
        record = {
            "options": list(action.option_strings),
            "dest": action.dest,
            "type": getattr(action.type, "__name__", None),
            "default": action.default,
            "choices": None if action.choices is None else list(action.choices),
            "nargs": action.nargs,
            "const": action.const,
            "required": action.required,
            "action": type(action).__name__,
            "metavar": action.metavar,
            "help": action.help,
        }
        if not action.option_strings:
            # Positionals are consumed in declaration order.
            record["position"] = position
            position += 1
        records[(action.option_strings or [action.dest])[0]] = record
    if records:
        out[prefix.strip()] = records
    return out


class TestSurface:
    """Every subcommand parses exactly what it parsed before PR 24."""

    @pytest.fixture(scope="class")
    def parent(self):
        return json.loads(SURFACE_SNAPSHOT.read_text(encoding="utf-8"))

    @pytest.fixture(scope="class")
    def current(self):
        # Through JSON, so tuples and lists compare as the snapshot's do.
        return json.loads(json.dumps(surface(build_parser())))

    def test_same_subcommands(self, parent, current):
        assert sorted(current) == sorted(parent)

    def test_same_flags_minus_the_two_removed(self, parent, current):
        """Every pinned flag parses as pinned, but for REMOVED_OPTIONS."""
        def parsing(command, flags):
            return {
                name: {k: v for k, v in record.items() if k != "help"}
                for name, record in flags.items()
                if (command, name) not in REMOVED_OPTIONS
            }

        for command, flags in parent.items():
            assert parsing(command, current[command]) == parsing(command, flags)

    def test_removed_options_are_gone(self, current):
        for command, name in REMOVED_OPTIONS:
            assert name not in current[command]

    def test_no_flag_loses_its_help(self, parent, current):
        """Wording may converge where one shared declaration replaced
        per-command copies, but only onto a string the parent already
        used for that flag."""
        known = {}
        for flags in parent.values():
            for name, record in flags.items():
                if record["help"]:
                    known.setdefault(name, set()).add(record["help"])
        for command, flags in current.items():
            for name, record in flags.items():
                if parent[command][name]["help"]:
                    assert record["help"] in known[name], (command, name)
        # node/router declared the batcher flags bare; they now inherit
        # serve's descriptions.
        for command in ("node", "router"):
            for name in ("--max-batch-size", "--wire"):
                assert current[command][name]["help"] == current["serve"][name]["help"]
                assert current[command][name]["help"]


#: Documents that quote command lines.
DOCUMENTS = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]


def documented_commands(path):
    """``(line number, argv)`` of every ``repro ...`` line in a fenced
    block of the document."""
    names = "|".join(sorted({name.split()[0] for name in surface(build_parser())}))
    pattern = re.compile(rf"^\s*(?:python -m )?repro ((?:{names})\b.*)")
    fenced = False
    text = path.read_text(encoding="utf-8").replace("\\\n", " ")
    for number, line in enumerate(text.splitlines(), start=1):
        if line.strip().startswith("```"):
            fenced = not fenced
        for segment in line.split("|") if fenced else ():
            match = pattern.search(segment)
            if match:
                argv = shlex.split(match.group(1), comments=True)
                for stop in ("&", ">"):
                    if stop in argv:
                        argv = argv[: argv.index(stop)]
                yield number, argv


class TestDocumentedCommands:
    @pytest.mark.parametrize("path", DOCUMENTS, ids=lambda path: path.name)
    def test_quoted_command_lines_parse(self, path):
        """A quoted command line names only flags that exist."""
        parser = build_parser()
        for number, argv in documented_commands(path):
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{path.name}:{number}: repro {' '.join(argv)}")

    def test_documents_do_quote_commands(self):
        quoted = {p.name: len(list(documented_commands(p))) for p in DOCUMENTS}
        assert quoted["README.md"] >= 20 and quoted["api.md"] >= 30
        assert quoted["SKILL.md"] >= 20

    def test_module_docstring_lists_every_command(self):
        for name in surface(build_parser()):
            assert f"``repro {name.split()[0]}``" in cli.__doc__


class TestParser:
    def test_subcommands_present(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ["generate", "stats", "build", "query", "serve", "client"]:
            assert command in text

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestTopFrame:
    def test_batching_means_merge_exactly_across_sources(self):
        """Mean batch size and queue wait come from the histograms' sums
        and counts added over every source, not from per-source means."""

        def histogram(*per_source):
            return {"samples": [
                {"labels": {"source": source}, "value": {"sum": total, "count": n}}
                for source, total, n in per_source
            ]}

        frame = cli._render_top_frame({
            "repro_batch_size": histogram(("s0", 30.0, 10), ("s1", 2.0, 2)),
            "repro_batch_queue_wait_seconds": histogram(
                ("s0", 0.010, 10), ("s1", 0.006, 2)
            ),
        }, "cluster")
        assert "  batching: mean batch size 2.7, mean queue wait 1.33 ms" in frame


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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--k", "4"],
            ["--k", "3", "--early-termination", "0.05"],
            ["--threshold", "0.2"],
        ],
    )
    def test_lines_are_the_searchers_answer(
        self, dataset_path, table_path, capsys, flags
    ):
        """``query`` answers on the engine path; its report is what the
        scalar searcher, the oracle, gives for the same target."""
        db = repro.TransactionDatabase.load(dataset_path)
        searcher = repro.SignatureTableSearcher(
            repro.SignatureTable.load(table_path), db
        )
        similarity = repro.JaccardSimilarity()
        if "--threshold" in flags:
            hits, stats = searcher.range_query([1, 5, 9], similarity, 0.2)
            want = [f"{len(hits)} transactions with jaccard >= 0.2"]
            hits = hits[:5]
        else:
            budget = 0.05 if "--early-termination" in flags else None
            hits, stats = searcher.knn(
                [1, 5, 9], similarity, k=int(flags[1]), early_termination=budget
            )
            want = []
        want += [
            f"#{rank:<3d} tid={nb.tid:<8d} jaccard={nb.similarity:.4f} "
            f"items={sorted(db[nb.tid])}"
            for rank, nb in enumerate(hits, start=1)
        ]
        want.append(
            f"-- accessed {stats.transactions_accessed}/{stats.total_transactions} "
            f"transactions (pruned {stats.pruning_efficiency:.1f}%), "
            f"{stats.io.pages_read} pages, {stats.io.seeks} seeks"
        )
        argv = ["query", str(dataset_path), str(table_path), "1", "5", "9"]
        assert main(argv + ["-s", "jaccard"] + flags) == 0
        got = capsys.readouterr().out.splitlines()
        assert got[: len(want)] == want
        assert [line[:20] for line in got[len(want):]] == (
            ["-- terminated early:"] if stats.terminated_early else []
        )

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


class TestRangeRefusesKnnFlags:
    """``--threshold`` asks for a range query, which has no row budget: a
    k-NN flag beside it is refused (exit 2, nothing on stdout), not
    silently dropped."""

    @pytest.mark.parametrize(
        "command, flags, named",
        [
            ("query", ["--early-termination", "0.01"], "--early-termination"),
            ("query-batch", ["--early-termination", "0.01"], "--early-termination"),
            ("explain", ["--early-termination", "0.01"], "--early-termination"),
        ],
    )
    def test_refused(
        self, dataset_path, table_path, tmp_path, capsys, command, flags, named
    ):
        if command == "query-batch":
            queries = tmp_path / "queries.txt"
            queries.write_text("1 2 3\n")
            target = [str(queries)]
        else:
            target = ["1", "2", "3"]
        argv = [command, str(dataset_path), str(table_path), *target]
        assert main(argv + ["--threshold", "0.2"] + flags) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: {named} does not apply to --threshold" in err
        # Either flag alone still answers.
        assert main(argv + ["--threshold", "0.2"]) == 0
        assert main(argv + flags) == 0


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
