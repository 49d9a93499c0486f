"""CLI: payload formats, exit codes, pipe-style flows."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from totecc import cli, extremal, families, graph, graph6
from totecc.cli import main
from totecc.enumeration import connected_graphs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spawn(*argv, **kwargs):
    """The CLI in its own interpreter, as a shell runs it."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    runner = "import sys; from totecc.cli import main; sys.exit(main())"
    return subprocess.Popen([sys.executable, "-c", runner, *argv], env=env, **kwargs)


@pytest.fixture()
def g1_string():
    from totecc.graph import Graph

    g1 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 2), (1, 3)])
    return graph6.encode(g1)


class TestEps:
    def test_graph6_input(self, capsys, g1_string):
        code, out, _ = run(capsys, "eps", "--graph6", g1_string)
        assert code == 0
        assert "eps=10" in out and "wiener=13" in out

    def test_family_formula_agreement(self, capsys):
        code, out, _ = run(capsys, "eps", "--family", "dumbbell", "3", "3", "7")
        assert code == 0
        assert "eps=24" in out and "formula=24" in out and "agree=True" in out

    def test_family_without_closed_form(self, capsys):
        code, out, _ = run(capsys, "eps", "--family", "spider_balanced", "9", "3")
        assert code == 0 and "formula=none" in out

    def test_json(self, capsys, g1_string):
        code, out, _ = run(capsys, "eps", "--graph6", g1_string, "--format", "json")
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["graphs"][0]["eps"] == 10

    def test_stdin(self, capsys, monkeypatch, g1_string):
        monkeypatch.setattr("sys.stdin", io.StringIO(g1_string + "\n"))
        code, out, _ = run(capsys, "eps", "--stdin")
        assert code == 0 and "eps=10" in out

    @pytest.mark.parametrize("stdin", ["", "\n  \n"])
    def test_stdin_without_a_graph_is_usage_error(self, capsys, monkeypatch, stdin):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run(capsys, "eps", "--stdin", "--format", "json")
        assert code == 2 and out == "" and "error: " in err


class TestGraphInputs:
    """eps and rewrite take exactly one of --graph6, --stdin and --family."""

    @pytest.mark.parametrize(
        "inputs",
        [
            ["--graph6", "C~", "--family", "path", "5"],
            ["--stdin", "--family", "path", "5"],
            ["--graph6", "C~", "--stdin"],
            [],
        ],
    )
    @pytest.mark.parametrize("command", [["eps"], ["rewrite", "graft"]])
    def test_not_exactly_one_input_is_usage_error(self, capsys, monkeypatch, command, inputs):
        monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))
        with pytest.raises(SystemExit) as exc:
            main(command + inputs)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestKernelCalls:
    """Each printed invariants record runs the eccentricity kernel once."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = []
        original = graph.eccentricities

        def counting(g):
            seen.append(g.n)
            return original(g)

        monkeypatch.setattr(graph, "eccentricities", counting)
        monkeypatch.setattr(cli, "eccentricities", counting)
        return seen

    def test_eps_once_per_graph(self, capsys, calls):
        code, out, _ = run(capsys, "eps", "--family", "path", "200")
        assert code == 0 and "eps=29900 " in out and "diameter=199 radius=100" in out
        assert calls == [200]

    def test_eps_stdin_once_per_graph(self, capsys, monkeypatch, calls):
        lines = [graph6.encode(families.star(5)), graph6.encode(families.cycle(6))]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code, out, _ = run(capsys, "eps", "--stdin")
        assert code == 0 and "avg_ecc=9/5 diameter=2 radius=1" in out
        assert calls == [5, 6]

    def test_rewrite_before_and_after(self, capsys, calls):
        g6 = graph6.encode(families.star(5))
        code, _, err = run(capsys, "rewrite", "graft", "--graph6", g6)
        assert code == 0 and "eps delta: +" in err
        assert calls == [5, 5]


class TestFamily:
    def test_pipe_shape(self, capsys):
        code, out, err = run(capsys, "family", "dumbbell", "3", "3", "7")
        assert code == 0
        line = out.strip()
        assert graph6.decode(line).n == 7  # stdout is pure graph6
        assert "eps=24" in err  # summary on stderr

    def test_pipe_into_eps(self, capsys, monkeypatch):
        _, out, _ = run(capsys, "family", "dumbbell", "3", "3", "7")
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out2, _ = run(capsys, "eps", "--stdin")
        assert code == 0 and "eps=24" in out2

    def test_json(self, capsys):
        code, out, _ = run(capsys, "family", "tadpole_l", "7", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["invariants"]["eps"] == 29
        assert payload["invariants"]["girth"] == 3

    def test_bad_parameters(self, capsys):
        code, _, err = run(capsys, "family", "tadpole_l", "5", "5")
        assert code == 2 and "error" in err


class TestRewrite:
    def test_list_sites(self, capsys):
        g6 = graph6.encode(families.star(5))
        code, out, _ = run(capsys, "rewrite", "graft", "--graph6", g6, "--list-sites")
        assert code == 0 and out.strip()

    def test_apply_graft(self, capsys):
        g6 = graph6.encode(families.star(5))
        code, out, err = run(capsys, "rewrite", "graft", "--graph6", g6, "--site-index", "0")
        assert code == 0
        assert graph6.decode(out.strip()).n == 5
        assert "eps delta: +" in err

    def test_add_edge_json(self, capsys):
        g6 = graph6.encode(families.path(4))
        code, out, _ = run(
            capsys, "rewrite", "add-edge", "--graph6", g6, "--site-index", "2",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["eps_delta"] <= 0

    def test_no_sites(self, capsys):
        g6 = graph6.encode(families.path(4))
        code, _, err = run(capsys, "rewrite", "graft", "--graph6", g6)
        assert code == 2 and "no valid" in err

    @pytest.mark.parametrize(
        "kind",
        [
            "add-edge",
            "graft",
            "relocate",
            "block-to-cycle",
            "merge-cycles",
            "balance-paths",
            "shrink-girth",
        ],
    )
    @pytest.mark.parametrize("how", [["--list-sites"], ["--site-index", "0"]])
    def test_disconnected_graph_is_an_error(self, capsys, kind, how):
        # the path 2-1-0-3-4-5 plus a separate edge 6-7
        code, out, err = run(capsys, "rewrite", kind, "--graph6", "GkCG?C", *how)
        assert (code, out, err) == (2, "", "error: invariant requires a connected graph\n")

    def test_merge_sites_keep_block_member_order(self, capsys):
        # frozenset iteration order follows how the DFS filled each block
        code, out, _ = run(
            capsys, "rewrite", "merge-cycles", "--graph6", "KsCK?_DG?AAO", "--list-sites"
        )
        assert code == 0
        assert out == (
            "0: MergeCyclesSite(shared=3, cycle_a=frozenset({0, 3, 11, 6}), "
            "cycle_b=frozenset({3, 4, 5, 7, 8}))\n"
        )


class TestEnumerate:
    def test_counts(self, capsys):
        code, out, err = run(capsys, "enumerate", "-n", "5")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 21
        assert all(graph6.decode(l).n == 5 for l in lines)

    def test_class_filter(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-n", "5", "--class", "tree")
        assert len(out.split()) == 3

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "out.g6"
        code, out, _ = run(capsys, "enumerate", "-n", "4", "--graph6-out", str(target))
        assert code == 0 and out == ""
        assert len(target.read_text().split()) == 6

    def test_workers_match_serial(self, capsys):
        code, serial, _ = run(capsys, "enumerate", "-n", "7")
        code2, parallel, _ = run(capsys, "enumerate", "-n", "7", "--workers", "2")
        assert code == code2 == 0
        assert len(serial.split()) == 853
        assert parallel == serial

    def test_workers_apply_class_in_order(self, capsys):
        _, serial, _ = run(capsys, "enumerate", "-n", "7", "--class", "cut_count=2")
        _, parallel, _ = run(
            capsys, "enumerate", "-n", "7", "--class", "cut_count=2", "--workers", "3"
        )
        assert serial and parallel == serial

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, capsys, workers):
        code, out, err = run(capsys, "enumerate", "-n", "4", "--workers", workers)
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("cls", ["cut_count=9", "unicyclic_girth=7"])
    def test_class_out_of_range_rejected(self, capsys, tmp_path, cls, workers):
        # search rejects these classes at n = 5; enumerate must not emit 0 graphs
        target = tmp_path / "out.g6"
        code, out, err = run(
            capsys, "enumerate", "-n", "5", "--class", cls, "--workers", workers,
            "--graph6-out", str(target),
        )
        assert code == 2 and out == "" and err.startswith("error: ")
        assert not target.exists()

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "order",
        [["-n", "10"], ["-n", "0"], ["-n", "11"], ["-n", "11", "--allow-large"]],
        ids=["10", "0", "11", "11-allow-large"],
    )
    def test_order_out_of_range_leaves_file(self, capsys, tmp_path, order, workers, existing):
        target = tmp_path / "out.g6"
        if existing:
            target.write_bytes(b"kept\n")
        code, out, err = run(
            capsys, "enumerate", *order, "--workers", workers, "--graph6-out", str(target)
        )
        assert code == 2 and out == "" and err.startswith("error: ")
        if existing:
            assert target.read_bytes() == b"kept\n"
        else:
            assert not target.exists()

    def test_workers_match_golden_8(self, capsys):
        golden = Path(__file__).parent / "golden"
        code, out, err = run(capsys, "enumerate", "-n", "8", "--workers", "2")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == (golden / "enumerate_8.sha256").read_text().strip()
        assert err == (golden / "enumerate_8.stderr").read_text()
        assert code == int((golden / "enumerate_8.exit").read_text())

    def test_more_workers_than_roots(self, capsys):
        # below order 6 every root is one graph, so n = 1..4 has 1, 1, 2, 6 roots
        for n in ("1", "2", "3", "4"):
            serial = run(capsys, "enumerate", "-n", n)
            assert run(capsys, "enumerate", "-n", n, "--workers", "3") == serial

    @pytest.mark.parametrize("cls", ["tree", "unicyclic_girth=4"])
    def test_edge_count_classes_run_no_cut_vertices(self, capsys, monkeypatch, cls):
        def member(g):
            if cls == "tree":
                return g.edge_count == g.n - 1
            return g.edge_count == g.n and graph.girth(g) == 4

        expected = [graph6.encode(g) for g in connected_graphs(7) if member(g)]
        calls = []

        def counting(g):
            calls.append(g)
            return graph.cut_vertices(g)

        monkeypatch.setattr(extremal, "cut_vertices", counting)
        code, out, _ = run(capsys, "enumerate", "-n", "7", "--class", cls)
        assert code == 0 and expected and out.splitlines() == expected
        assert calls == []


class TestSearch:
    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "search", "-n", "6", "--class", "cut_count=2", "--objective", "max"
        )
        assert code == 0 and "value=19" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "search", "-n", "7", "--class", "all", "--objective", "max",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["report"]["value"] == 33
        assert payload["report"]["class_size"] == 853


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "cut-max", "-n", "6..7")
        assert code == 0 and "pass" in out

    def test_uniqueness_defect_exit_one(self, capsys):
        # the n=5 pendant-free uniqueness claim genuinely fails
        code, out, _ = run(capsys, "verify", "--theorem", "pendant-max", "-n", "5")
        assert code == 1 and "uniqueness-fail" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--theorem", "unicyclic", "-n", "6", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert all(v["status"] == "pass" for v in payload["verdicts"])

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--theorem", "tree", "-n", "6", "--format", "csv"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(r["status"] == "pass" for r in rows)


    @pytest.mark.parametrize("orders", ["12", "8..3", "8..10"])
    def test_no_applicable_order_is_usage_error(self, capsys, orders):
        code, out, err = run(capsys, "verify", "-n", orders, "--format", "json")
        assert code == 2 and out == "" and "error: " in err
        assert "verifying" not in err  # rejected before any order runs

    def test_theorem_outside_its_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--theorem", "unicyclic", "-n", "3..4")
        assert code == 2 and out == "" and "error: " in err

    def test_all_skips_only_inapplicable_orders(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "3..5", "--format", "json")
        assert code == 1  # the n = 5 uniqueness defect
        theorems = {(v["theorem"], v["n"]) for v in json.loads(out)["verdicts"]}
        assert ("tree-max", 4) in theorems and ("unicyclic-min", 5) in theorems
        assert not any(t.startswith("unicyclic") and n < 5 for t, n in theorems)
        assert not any(t.startswith("tree") and n < 4 for t, n in theorems)


class TestConjecture:
    def test_pass_range(self, capsys):
        code, out, _ = run(capsys, "conjecture", "-n", "6..7")
        assert code == 0 and "pass" in out

    def test_violation_reported_but_exit_zero(self, capsys):
        code, out, err = run(capsys, "conjecture", "-n", "8", "--format", "json")
        assert code == 0  # findings never fail the run
        payload = json.loads(out)
        statuses = {v["parameter"]: v["status"] for v in payload["verdicts"]}
        assert statuses[2] == "conjecture-violated"
        assert "violation" in err


    @pytest.mark.parametrize("orders", ["8..3", "5", "8..10"])
    def test_no_case_is_usage_error(self, capsys, orders):
        code, out, err = run(capsys, "conjecture", "-n", orders)
        assert code == 2 and "error: " in err and "no conjecture violations" not in err
        assert out == ""
        if orders != "5":  # n = 5 is audited and has no case; the others never start
            assert err.startswith("error: ")

    def test_unaudited_order_names_the_audited_range(self, capsys):
        code, out, err = run(capsys, "conjecture", "-n", "4..6")
        assert (code, out) == (2, "")
        assert err == "error: the conjecture audit covers 5 <= n <= 9, not n=4\n"


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "-n", "10"],
            ["verify", "-n", "10"],
            ["search", "-n", "10", "--class", "all", "--objective", "max"],
        ],
        ids=["enumerate", "verify", "search"],
    )
    def test_order_past_the_cap_names_no_python_keyword(self, capsys, argv):
        # allow_large is the library's keyword; the CLI flag is --allow-large,
        # and verify and search have no such option.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "allow_large" not in err

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "-n", "5"])
        assert exc.value.code == 2


class TestOutputErrors:
    def test_unopenable_output_file_is_exit_2(self, tmp_path):
        target = str(tmp_path / "missing" / "x.g6")
        pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True}
        proc = spawn("enumerate", "-n", "4", "--graph6-out", target, **pipes)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_reader_that_leaves_ends_quietly(self, workers):
        # as after `| head -1`: status 128 + SIGPIPE and nothing on stderr
        pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        proc = spawn("enumerate", "-n", "8", "--workers", workers, **pipes)
        assert proc.stdout.readline().strip()
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")
