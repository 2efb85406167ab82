"""The CLI against real servers: what CI's shell smokes used to assert.

``serve``, ``node`` and ``router`` install signal handlers, which asyncio
allows only on the main thread, so they run as ``python -m repro ...
--port 0`` subprocesses whose port is read from the banner (the way
``bench/workloads.py::Server`` does it).  Every other command runs
in-process through ``cli.main`` with ``capsys``.

Three sequences, one per deleted CI block: the frozen service smoke
(explain, serve, burst over both wires, stats, metrics, top, profile, the
NDJSON-only refusal, then the live ingest / serve --live / mutate /
compact cycle), the sketch tier (build, stats, lsh query-batch, served
lsh query) and the two-node cluster (node x2 + router).
"""

import io
import json
import os
import shlex
import signal
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import repro
from repro.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))


class Served:
    """A ``python -m repro serve|node|router ... --port 0`` subprocess."""

    def __init__(self, line):
        # stderr goes to a file: nobody drains it while the server runs,
        # and --log-json can write more than a pipe holds.
        self._stderr = tempfile.TemporaryFile(mode="w+")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *shlex.split(line), "--port", "0"],
            env=ENV,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        # The banner is the first line naming the bound address; a live
        # server armed with a fault plan announces that first.
        self.preamble = []
        self.banner = self.process.stdout.readline()
        while self.banner and " on " not in self.banner:
            self.preamble.append(self.banner)
            self.banner = self.process.stdout.readline()
        try:
            address = self.banner.split(" on ", 1)[1].split()[0]
            self.port = address.rsplit(":", 1)[1]
        except IndexError:
            self.kill()
            raise AssertionError(f"no banner from {line!r}: {self.stderr()}")

    def stderr(self):
        self._stderr.seek(0)
        return self._stderr.read()

    def finish(self, timeout=20):
        """Wait for the exit the test asked for; ``(code, stdout, stderr)``."""
        try:
            out, _ = self.process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        return self.process.returncode, out, self.stderr()

    def kill(self):
        if self.process.poll() is None:
            self.process.kill()
            self.process.communicate()


def run(capsys, line):
    """``repro <line>`` in-process; ``(exit code, stdout, stderr)``."""
    capsys.readouterr()
    code = main(shlex.split(line))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ok(capsys, line):
    code, out, err = run(capsys, line)
    assert code == 0, (line, out, err)
    return out


def dead_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The CI smokes' index: T5.I3.D2K over 200 items, K=10."""
    root = tmp_path_factory.mktemp("served")
    db, table = root / "smoke.npz", root / "smoke_table.npz"
    assert main(shlex.split(f"generate T5.I3.D2K {db} --seed 7 --num-items 200")) == 0
    assert main(shlex.split(f"build {db} {table} -K 10 --seed 1")) == 0
    return root, db, table


@pytest.fixture(scope="module")
def sketch_table(corpus):
    root, db, table = corpus
    out = root / "sketch_table.npz"
    assert main(shlex.split(f"sketch build {db} {table} --out {out}")) == 0
    return out


@pytest.fixture(scope="module")
def frozen(corpus, sketch_table):
    """One frozen server for the whole module, drained by the last test
    of ``TestFrozenService``; killed here if that never ran."""
    server = Served(f"serve {corpus[1]} {sketch_table} --log-json")
    yield server
    server.kill()


class TestExplain:
    def test_human_report(self, corpus, capsys):
        _, db, table = corpus
        out = ok(capsys, f"explain {db} {table} 3 17 42 -s cosine --k 5")
        assert "top results:" in out
        assert out.count("cosine=") == 5

    def test_sort_order_and_event_cap(self, corpus, capsys):
        _, db, table = corpus
        out = ok(
            capsys,
            f"explain {db} {table} 3 17 42 --sort-by supercoordinate "
            "--max-events 3 --early-termination 0.05",
        )
        assert "top results:" in out

    def test_json_document(self, corpus, capsys):
        _, db, table = corpus
        out = ok(capsys, f"explain {db} {table} 3 17 42 --threshold 0.3 -o json")
        assert set(json.loads(out)) == {"explain", "spans", "results", "stats"}

    def test_range_json_holds_every_hit(self, corpus, capsys):
        """``--k`` caps the human report, never a range answer's JSON."""
        _, db, table = corpus
        searcher = repro.SignatureTableSearcher(
            repro.SignatureTable.load(table), repro.TransactionDatabase.load(db)
        )
        want, _ = searcher.range_query([3, 17, 42], repro.JaccardSimilarity(), 0.05)
        assert len(want) > 2
        line = f"explain {db} {table} 3 17 42 -s jaccard --threshold 0.05 --k 2"
        document = json.loads(ok(capsys, line + " -o json"))
        assert document["results"] == [
            {"tid": nb.tid, "similarity": nb.similarity} for nb in want
        ]
        human = ok(capsys, line)
        assert human.split("top results:")[1].count("jaccard=") == 2


class TestFrozenService:
    """CI ``service-smoke``: one server, every read-side command."""

    def test_banner(self, frozen):
        assert frozen.banner.startswith("serving ")
        assert "(2000 transactions, frozen) on 127.0.0.1:" in frozen.banner
        assert "[max_batch_size=32, max_wait_ms=2, max_queue=1024]" in frozen.banner

    def test_ping_waits_until_ready(self, frozen, capsys):
        line = f"client ping --port {frozen.port} --wait-ready"
        assert ok(capsys, line) == "pong\n"

    @pytest.mark.parametrize("wire", ["binary", "ndjson"])
    def test_burst_names_its_wire(self, frozen, capsys, wire):
        out = ok(
            capsys,
            f"client burst --port {frozen.port} --requests 64 --concurrency 8 "
            f"--k 5 --wire {wire}",
        )
        assert out.startswith("64/64 requests ok (0 rejected)")
        assert f"over {wire}," in out

    def test_burst_from_a_query_file(self, frozen, corpus, capsys):
        queries = corpus[0] / "burst.txt"
        queries.write_text("1 2 3\n4 5 6\n")
        out = ok(
            capsys,
            f"client burst --port {frozen.port} --queries {queries} --requests 8 "
            "--concurrency 2 --threshold 0.2 -s jaccard",
        )
        assert out.startswith("8/8 requests ok")

    def test_query_same_answer_on_both_wires(self, frozen, capsys):
        line = f"client query --port {frozen.port} --items 3 17 42 -s cosine --k 5"
        binary = ok(capsys, line + " --wire binary")
        assert binary.count("similarity ") == 5
        assert ok(capsys, line + " --wire ndjson") == binary

    def test_range_query(self, frozen, capsys):
        out = ok(
            capsys,
            f"client query --port {frozen.port} --items 3 17 42 -s jaccard "
            "--threshold 0.3",
        )
        for line in out.splitlines():
            assert float(line.split("similarity ")[1]) >= 0.3

    def test_lsh_tier_query(self, frozen, capsys):
        """CI ``sketch``: the served sketch tier announces itself."""
        out = ok(
            capsys,
            f"client query --port {frozen.port} --items 3 17 42 -s jaccard --k 3 "
            "--candidate-tier lsh --target-recall 0.9",
        )
        assert "-- lsh tier: " in out and "estimated recall" in out

    def test_stats_and_health(self, frozen, capsys):
        stats = json.loads(ok(capsys, f"client stats --port {frozen.port}"))
        assert stats["index"]["num_transactions"] == 2000
        assert stats["index"]["universe_size"] == 200
        health = json.loads(ok(capsys, f"client health --port {frozen.port}"))
        assert health["ready"] and not health["degraded"]

    def test_metrics_both_formats(self, frozen, capsys):
        text = ok(capsys, f"metrics --port {frozen.port} --format prometheus")
        assert "repro_requests_completed_total" in text
        assert 'repro_requests_completed_by_wire_total{wire="binary"}' in text
        registry = json.loads(ok(capsys, f"metrics --port {frozen.port} -f json"))
        assert "repro_requests_completed_total" in registry

    def test_top_once(self, frozen, capsys):
        out = ok(capsys, f"top --port {frozen.port} --once")
        assert out.startswith("repro top — scope self\n")
        assert "completed" in out and "queue depth" in out

    def test_profile_one_shot(self, frozen, capsys):
        code, _, err = run(capsys, f"profile --port {frozen.port} --duration 0.2")
        assert code == 0
        assert "samples over" in err and "profiler)" in err
        line = f"profile --port {frozen.port} --duration 0.1 --hz 50 -o json"
        snapshot = json.loads(ok(capsys, line))
        assert snapshot["mode"] == "one_shot" and snapshot["profile"]["hz"] == 50.0

    def test_mutations_refused_when_frozen(self, frozen, capsys):
        code, _, err = run(capsys, f"client insert --port {frozen.port} --items 5 9")
        assert code == 1
        assert "error: server rejected the request: [bad_request]" in err

    def test_missing_required_flags_exit_2(self, frozen, capsys):
        for action, message in [
            ("insert", "error: insert needs --items\n"),
            ("query", "error: query needs --items\n"),
            ("delete", "error: delete needs --tid\n"),
        ]:
            result = run(capsys, f"client {action} --port {frozen.port}")
            assert result == (2, "", message)

    def test_shutdown_drains(self, frozen, capsys):
        out = ok(capsys, f"client shutdown --port {frozen.port}")
        assert out == "server draining\n"
        code, out, err = frozen.finish()
        assert code == 0
        assert out.startswith("drained: ") and "0 timeouts" in out
        # --log-json: one JSON object per line on stderr.
        assert all(json.loads(line) for line in err.splitlines())


class TestDeadPort:
    def test_client_exits_1(self, capsys):
        code, _, err = run(capsys, f"client ping --port {dead_port()}")
        assert code == 1 and err.startswith("error: ")

    def test_wait_ready_exits_2(self, capsys):
        port = dead_port()
        code, _, err = run(capsys, f"client ping --port {port} --wait-ready 0.2")
        assert code == 2
        assert err == f"error: no server at 127.0.0.1:{port} after 0.2s\n"

    @pytest.mark.parametrize("command", ["metrics", "top --once", "profile"])
    def test_scrapers_exit_2(self, capsys, command):
        code, _, err = run(capsys, f"{command} --port {dead_port()}")
        assert code == 2 and err.startswith("error: ")


class TestWirePolicy:
    """An NDJSON-only server with remote shutdown off."""

    def test_refuses_binary_and_remote_shutdown(self, corpus, capsys):
        _, db, table = corpus
        server = Served(
            f"serve {db} {table} --wire ndjson --no-remote-shutdown "
            "--max-batch-size 8 --max-wait-ms 1 --max-queue 64 --timeout-ms 5000"
        )
        try:
            assert "[max_batch_size=8, max_wait_ms=1, max_queue=64]" in server.banner
            ping = f"client ping --port {server.port}"
            code, _, err = run(capsys, ping + " --wire binary")
            assert code == 1 and "[bad_request]" in err
            assert ok(capsys, ping + " --wire auto") == "pong\n"
            code, _, err = run(capsys, f"client shutdown --port {server.port}")
            assert code == 1 and "remote shutdown is disabled" in err
            # The operator's way out: SIGTERM drains like the shutdown op.
            server.process.send_signal(signal.SIGTERM)
            code, out, _ = server.finish()
            assert code == 0 and out.startswith("drained: ")
        finally:
            server.kill()


class TestServeArguments:
    def test_needs_a_table_or_a_live_directory(self, capsys):
        code, _, err = run(capsys, "serve --port 0")
        assert code == 2
        assert err == (
            "error: serve needs either --live DIR or a database and a table\n"
        )

    def test_fault_plan_without_live_is_refused(self, corpus, tmp_path):
        """The plan guards WAL and checkpoint I/O, which a frozen table
        has none of: refuse before binding instead of ignoring the flag."""
        _, db, table = corpus
        plan = tmp_path / "nonexistent-plan.json"
        line = f"-m repro serve {db} {table} --fault-plan {plan} --port 0"
        done = subprocess.run(
            [sys.executable, *shlex.split(line)],
            env=ENV,
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: --fault-plan requires --live\n"


class TestLiveLifecycle:
    """CI ``service-smoke``'s live block: ingest, serve --live, mutate,
    compact online and offline."""

    @pytest.fixture(scope="class")
    def live_dir(self, corpus):
        return corpus[0] / "live-idx"

    @pytest.fixture(scope="class")
    def plan(self, corpus):
        """A fault plan that arms the injector and fires nothing."""
        path = corpus[0] / "plan.json"
        path.write_text(json.dumps({"seed": 1, "faults": []}))
        return path

    def test_ingest_creates_then_appends(self, corpus, live_dir, capsys, monkeypatch):
        _, db, _ = corpus
        out = ok(capsys, f"ingest {live_dir} --init {db}")
        assert out.startswith("created live index over 2000 transactions (K=")
        assert "-- 2000 logical transactions (0 in delta, 0 tombstones)" in out
        code, _, err = run(capsys, f"ingest {live_dir} --init {db}")
        assert code == 2 and "already holds a live index" in err
        monkeypatch.setattr(sys, "stdin", io.StringIO("3 17 42\n"))
        out = ok(capsys, f"ingest {live_dir} - --checkpoint --fsync-interval 8")
        assert "ingested 1 transactions in" in out
        assert "checkpointed through seqno 1; WAL truncated" in out
        assert "-- 2001 logical transactions" in out

    def test_ingest_without_an_index(self, corpus, capsys):
        code, _, err = run(capsys, f"ingest {corpus[0] / 'no-such-index'}")
        assert code == 2 and "pass --init DATABASE to create one" in err

    def test_fault_plan_is_armed(self, plan, live_dir, capsys):
        out = ok(capsys, f"ingest {live_dir} --fault-plan {plan}")
        assert out.startswith(f"fault injection armed from {plan}\n")

    def test_serve_live_mutations(self, plan, live_dir, capsys):
        server = Served(f"serve --live {live_dir} --fault-plan {plan}")
        try:
            assert server.preamble == [f"fault injection armed from {plan}\n"]
            assert "(2001 transactions, live) on " in server.banner
            port = f"--port {server.port}"
            ok(capsys, f"client ping {port} --wait-ready")
            out = ok(capsys, f"client insert {port} --items 5 9 101")
            assert out == "inserted as logical tid 2001\n"
            out = ok(capsys, f"client query {port} --items 5 9 101 -s jaccard --k 3")
            assert out.splitlines()[0] == "tid 2001  similarity 1.000000"
            out = ok(capsys, f"client delete {port} --tid 2001")
            assert out == "deleted logical tid 2001\n"
            out = ok(capsys, f"client checkpoint {port}")
            assert out.startswith("checkpointed through seqno ")
            report = json.loads(ok(capsys, f"client compact {port} --repartition"))
            assert report["repartitioned"] is True
            assert json.loads(ok(capsys, f"client health {port}"))["ready"]
            stats = json.loads(ok(capsys, f"client stats {port}"))
            assert stats["index"]["directory"] == str(live_dir)
            # One registry: service counters, WAL gauges and the injector's.
            scrape = ok(capsys, f"metrics {port}")
            assert "repro_requests_completed_total" in scrape
            assert "repro_fault_checks_total" in scrape
            assert ok(capsys, f"client shutdown {port}") == "server draining\n"
            code, out, _ = server.finish()
            assert code == 0 and out.startswith("drained: ")
        finally:
            server.kill()

    def test_offline_compaction(self, live_dir, capsys, monkeypatch):
        out = ok(capsys, f"compact {live_dir} --auto-repartition --if-needed")
        assert "compaction not needed (0 delta rows, 0 tombstones)" in out
        monkeypatch.setattr(sys, "stdin", io.StringIO("1 2 3\n4 5 6\n"))
        ok(capsys, f"ingest {live_dir} -")
        out = ok(capsys, f"compact {live_dir} --auto-repartition")
        assert "compacted: merged 2 inserts, dropped 0 tombstones -> 2003 " in out
        assert "repartitioned" in ok(capsys, f"compact {live_dir} --repartition")

    def test_compact_without_an_index(self, corpus, capsys):
        code, _, err = run(capsys, f"compact {corpus[0] / 'no-such-index'}")
        assert code == 2 and "no live index at" in err


class TestSketch:
    """CI ``sketch``: build, stats and the lsh tier of ``query-batch``."""

    def test_build_reports_and_writes(self, corpus, capsys):
        root, db, table = corpus
        out = ok(
            capsys,
            f"sketch build {db} {table} --out {root / 'sk2.npz'} --num-hashes 64 "
            "--bands 16 --rows 2 --seed 3 --design-similarity 0.5",
        )
        assert out.startswith("signed 2000 transactions with 64 hashes (16 bands x 2")
        assert (root / "sk2.npz").exists()

    def test_stats(self, corpus, sketch_table, capsys):
        out = ok(capsys, f"sketch stats {sketch_table}")
        assert "num_hashes: 128" in out and "target_recall -> bands probed" in out
        code, _, err = run(capsys, f"sketch stats {corpus[2]}")
        assert code == 1 and "run `repro sketch build` first" in err

    def test_query_batch_lsh_tier(self, corpus, sketch_table, capsys):
        root, db, _ = corpus
        queries = root / "sketch_queries.txt"
        queries.write_text("1 2 3\n4 5 6\n")
        out = ok(
            capsys,
            f"query-batch {db} {sketch_table} {queries} -s jaccard "
            "--candidate-tier lsh --target-recall 0.9",
        )
        assert "-- lsh tier: mean estimated recall" in out


@pytest.mark.cluster
class TestTwoNodeCluster:
    """CI ``cluster`` + ``obs-cluster``: node x2 behind a probing router."""

    def test_router_over_two_nodes(self, tmp_path, capsys):
        from repro.cluster import bootstrap_node_state
        from repro.core.partitioning import random_partition

        scheme = random_partition(64, 4, rng=0)
        for name in ("s0", "s1"):
            bootstrap_node_state(str(tmp_path / name), scheme).close()
        servers = []
        try:
            for name in ("s0", "s1"):
                servers.append(Served(f"node {tmp_path / name} --shard {name}"))
            s0, s1 = servers
            assert s0.banner.startswith("cluster node shard=s0 role=owner serving ")
            router = Served(
                f"router --shard s0=127.0.0.1:{s0.port} --shard s1=127.0.0.1:{s1.port} "
                "--probe-interval 0.5 --profile-hz 100"
            )
            servers.append(router)
            assert router.banner.startswith("cluster router over [s0, s1] on ")
            port = f"--port {router.port}"
            ok(capsys, f"client ping {port} --wait-ready")
            ring = ok(capsys, f"client ring {port}")
            assert '"s0"' in ring and '"s1"' in ring
            out = ok(capsys, f"client insert {port} --items 3 17 42")
            assert out.startswith("inserted as logical tid ")
            out = ok(capsys, f"client query {port} --items 3 17 42 -s jaccard --k 3")
            assert out.splitlines()[0].endswith("similarity 1.000000")
            assert "repro_cluster" in ok(capsys, f"metrics {port} --format prometheus")
            merged = ok(capsys, f"metrics {port} --router")
            assert 'source="s0"' in merged and 'source="s1"' in merged
            out = ok(capsys, f"top {port} --router --once")
            assert out.startswith("repro top — scope cluster\n")
            code, _, err = run(capsys, f"profile {port} --reset")
            assert code == 0 and "continuous profiler" in err
            code, _, err = run(capsys, f"profile --port {s0.port} --duration 0.2")
            assert code == 0 and "samples over" in err
            for server in (router, s0, s1):
                out = ok(capsys, f"client shutdown --port {server.port}")
                assert out == "server draining\n"
                assert server.finish()[0] == 0
        finally:
            for server in servers:
                server.kill()

    def test_replica_flag_is_owner_side(self, tmp_path, capsys):
        line = f"node {tmp_path} --shard s0 --role replica --replica 127.0.0.1:1"
        code, _, err = run(capsys, line)
        assert code == 2 and "--replica names the owner's ship target" in err

    def test_router_rejects_malformed_topology(self, capsys):
        code, _, err = run(capsys, "router --shard s0")
        assert code == 2 and "shard spec must be NAME=HOST:PORT" in err
        line = "router --shard s0=127.0.0.1:1 --replica s9=127.0.0.1:2"
        code, _, err = run(capsys, line)
        assert code == 2 and "--replica for unknown shards: ['s9']" in err
