import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oracles import brute_marked_graphs, brute_signed_sum, repeats_unmarked_type
from trailsum import bridge, cli, digraph
from trailsum.digraph import (class_graph, count_classes, enumerate_marked_graphs,
                              format_graph, make_gn, parse_graph, random_feasible_graph,
                              search_space)
from trailsum.trails import BudgetExceededError, ClassSums, signed_sum, signed_trails


@pytest.fixture
def g2_file(tmp_path):
    path = tmp_path / "g2.graph"
    path.write_text(format_graph(make_gn(2, 1)), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSignedSumCommand:
    def test_g2_summary(self, capsys, g2_file):
        code, out, _ = run(capsys, ["signed-sum", g2_file])
        assert code == 0
        assert out == "S=4 T=4 trails=8\n"

    def test_two_unmarked_loops(self, capsys, tmp_path):
        path = tmp_path / "loops.graph"
        path.write_text("n 1 s 1 t 1\n1 1 0\n1 1 0\n", encoding="utf-8")
        code, out, _ = run(capsys, ["signed-sum", str(path)])
        assert code == 0
        assert out == "S=0 T=0 trails=2\n"

    def test_list_trails(self, capsys, g2_file):
        code, out, _ = run(capsys, ["signed-sum", g2_file, "--list-trails"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9
        assert lines[0] == "trail=1,2,3,4,5 sgn=+1 sgn_M=+1"
        assert all(line.startswith("trail=") for line in lines[:-1])
        assert lines[-1] == "S=4 T=4 trails=8"

    def test_list_trails_reports_the_walk_on_stderr(self, capsys, g2_file):
        walk = signed_trails(make_gn(2, 1))
        assert sum(1 for _ in walk) == 8
        code, _, err = run(capsys, ["signed-sum", g2_file, "--list-trails"])
        assert code == 0
        assert re.fullmatch(rf"listed=8 steps={walk.steps} floods={walk.floods} "
                            r"elapsed=\d+\.\d{3}s\n", err)

    def test_list_trails_fold_disagreeing_with_the_sum_exits_2(self, capsys, monkeypatch,
                                                               g2_file):
        def one_sign_flipped(g, max_nodes, pieces):
            for i, (trail, sg, sm) in enumerate(signed_trails(g, max_nodes, pieces)):
                yield trail, sg, -sm if i == 3 else sm
        monkeypatch.setattr(cli, "signed_trails", one_sign_flipped)
        code, out, err = run(capsys, ["signed-sum", g2_file, "--list-trails"])
        assert code == 2
        assert out.splitlines()[-1] == "S=4 T=4 trails=8"
        assert err == "error: the listed trails give S=2 trails=8, the DP S=4 trails=8\n"

    def test_listing_equals_the_tuple_walk_rendered(self, capsys, tmp_path):
        # The 60 seeded graphs of the walk's budget tests and G_3 mbar=3, whole
        # and stopped at seeded budgets: the lines, then the budget error line.
        rng = random.Random(28)
        graphs = [random_feasible_graph(rng, rng.randint(1, 3), rng.randint(1, 6), bmax=4)
                  for _ in range(60)]
        path = tmp_path / "g.graph"
        budgets = random.Random(34)
        for g in graphs + [make_gn(3, 3)]:
            path.write_text(format_graph(g), encoding="utf-8")
            total = signed_trails(g)
            lines = [f"trail={','.join(map(str, trail))} sgn={sg:+d} sgn_M={sm:+d}"
                     for trail, sg, sm in total]
            code, out, _ = run(capsys, ["signed-sum", str(path), "--list-trails"])
            assert code == 0
            assert out.splitlines()[:-1] == lines
            for budget in budgets.sample(range(total.steps), min(total.steps, 3)):
                prefix = 0
                with pytest.raises(BudgetExceededError) as info:
                    for _ in signed_trails(g, budget):
                        prefix += 1
                code, out, err = run(capsys, ["signed-sum", str(path), "--list-trails",
                                              "--budget", str(budget)])
                assert code == 4
                assert out.splitlines() == lines[:prefix]
                assert err == f"error: {info.value}\n"

    @pytest.mark.parametrize("text, budget, line", [
        ("n 1 s 1 t 1\n", "0", "trail= sgn=+1 sgn_M=+1"),
        ("n 1 s 1 t 1\n", "100", "trail= sgn=+1 sgn_M=+1"),
        ("n 2 s 1 t 2\n1 2 1\n", "2", "trail=1 sgn=+1 sgn_M=+1")])
    def test_listing_of_the_empty_and_one_edge_graphs(self, capsys, tmp_path, text, budget,
                                                       line):
        path = tmp_path / "small.graph"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, ["signed-sum", str(path), "--list-trails",
                                    "--budget", budget])
        assert code == 0
        assert out == f"{line}\nS=1 T=1 trails=1\n"

    def test_filter_partial_sums_add_up(self, capsys, tmp_path):
        path = tmp_path / "two.graph"
        path.write_text("n 2 s 1 t 2\n1 2 0\n2 1 0\n1 2 0\n", encoding="utf-8")
        code, out, _ = run(capsys, ["signed-sum", str(path),
                                    "--filter", "precedes:1|3"])
        assert code == 0
        first = int(out.splitlines()[1].split("=")[1])
        code, out, _ = run(capsys, ["signed-sum", str(path),
                                    "--filter", "precedes:3|1"])
        second = int(out.splitlines()[1].split("=")[1])
        assert first + second == 0  # S of this graph
        assert {first, second} == {1, -1}

    def test_filter_syntax_variants(self, capsys, g2_file):
        for spec in ("subtrail:1,2", "at:1@1", "precedes:1|2"):
            code, out, _ = run(capsys, ["signed-sum", g2_file, "--filter", spec])
            assert code == 0
            assert "filtered=" in out

    def test_bad_filter_is_usage_error(self, capsys, g2_file):
        for spec in ("subtrail", "precedes:1", "at:1", "frobnicate:1", "at:x@1"):
            code, _, err = run(capsys, ["signed-sum", g2_file, "--filter", spec])
            assert code == 1
            assert "usage error" in err

    def test_filter_integers_are_ascii_digits(self, capsys, g2_file):
        # int() would read these as at:1@1, at:10@1 and subtrail:1,2; the
        # graph parser rejects such tokens too
        for spec, token in (("at:1@\u0661", "'\u0661'"), ("at:1_0@1", "'1_0'"),
                            ("subtrail:1,\uff12", "'\uff12'")):
            code, out, err = run(capsys, ["signed-sum", g2_file, "--filter", spec])
            assert (code, out) == (1, "")
            assert err == f"usage error: bad constraint {spec!r}: not an integer: {token}\n"

    def test_out_of_range_filter_is_usage_error_before_any_output(self, capsys, g2_file):
        for spec in ("at:99@1", "at:1@99", "subtrail:1,99", "precedes:1|99",
                     "subtrail:0,1", "precedes:0|1"):
            code, out, err = run(capsys, ["signed-sum", g2_file, "--list-trails",
                                          "--filter", "at:1@1", "--filter", spec])
            assert code == 1
            assert out == ""
            assert err.startswith(f"usage error: bad constraint {spec!r}: ")
            assert err.count("\n") == 1

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, ["signed-sum", str(tmp_path / "nope.graph")])
        assert code == 3
        assert "cannot read input" in err

    def test_file_that_is_not_utf8_exits_3(self, capsys, tmp_path):
        path = tmp_path / "latin1.graph"
        path.write_bytes("n 1 s 1 t 1\n1 1 0  # \xe9\n".encode("latin-1"))
        code, out, err = run(capsys, ["signed-sum", str(path)])
        assert (code, out) == (3, "")
        assert err.startswith("cannot read input: 'utf-8' codec can't decode")

    def test_closed_stdout_ends_quietly_with_141(self, tmp_path):
        # the reader of a long listing stops after one line, as `| head -1` does
        path = tmp_path / "g3.graph"
        path.write_text(format_graph(make_gn(3, 3)), encoding="utf-8")
        proc = cli_process(["signed-sum", str(path), "--list-trails"], stdout=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"trail=")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (141, b"")

    def test_malformed_file_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("n 2 s 1 t 2\n1 2\n", encoding="utf-8")
        code, _, err = run(capsys, ["signed-sum", str(path)])
        assert code == 3
        assert "line 2" in err

    def test_budget_exceeded_exits_4(self, capsys, tmp_path):
        path = tmp_path / "g32.graph"
        path.write_text(format_graph(make_gn(3, 2)), encoding="utf-8")
        code, _, err = run(capsys, ["signed-sum", str(path), "--budget", "4"])
        assert code == 4
        assert "budget" in err

    def test_long_path_lists_its_trail(self, capsys, tmp_path):
        path = tmp_path / "path.graph"
        path.write_text("n 1201 s 1 t 1201\n"
                        + "".join(f"{i} {i + 1} 0\n" for i in range(1, 1201)),
                        encoding="utf-8")
        code, out, _ = run(capsys, ["signed-sum", str(path), "--list-trails"])
        assert code == 0
        assert out.splitlines() == [
            "trail=" + ",".join(str(i) for i in range(1, 1201)) + " sgn=+1 sgn_M=+1",
            "S=1 T=1 trails=1"]

    @pytest.mark.parametrize("exc", [MemoryError, RecursionError])
    def test_resource_errors_exit_4(self, capsys, monkeypatch, g2_file, exc):
        def fail(*args, **kwargs):
            raise exc()
        monkeypatch.setattr(cli, "signed_sum", fail)
        code, out, err = run(capsys, ["signed-sum", g2_file])
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_memory_exhaustion_exits_4_under_rlimit(self):
        # make_gn builds a list of about 4 * 10^8 edges, past a 1 GiB cap
        proc = run_under_rlimit(["gn", "--n", "100000000", "--mbar", "1", "--compute"])
        assert proc.returncode == 4, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == "error: out of memory\n"

    @pytest.mark.parametrize("listing", [False, True])
    def test_huge_vertex_count_costs_no_memory(self, tmp_path, listing):
        # validate and the DP look only at the roots and the vertices on
        # edges, so a header naming 10^9 vertices fits in a 1 GiB cap
        path = tmp_path / "huge.graph"
        path.write_text("n 1000000000 s 1 t 1\n1 1 0\n", encoding="utf-8")
        argv = ["signed-sum", str(path)] + (["--list-trails"] if listing else [])
        proc = run_under_rlimit(argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("trail=1 sgn=+1 sgn_M=+1\n" if listing else "") \
            + "S=1 T=1 trails=1\n"


def cli_process(argv, stdout):
    """The CLI started as `python -m trailsum.cli`, with stderr piped."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.Popen([sys.executable, "-m", "trailsum.cli", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(src)})


def run_under_rlimit(argv):
    """Run the CLI in a child whose address space is capped at 1 GiB."""
    pytest.importorskip("resource")
    src = Path(cli.__file__).resolve().parents[1]
    script = ("import resource, sys\n"
              f"resource.setrlimit(resource.RLIMIT_AS, ({1 << 30}, {1 << 30}))\n"
              f"sys.path.insert(0, {str(src)!r})\n"
              "from trailsum.cli import main\n"
              f"sys.exit(main({argv!r}))\n")
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)


class TestGnCommand:
    def test_compute_passes(self, capsys):
        code, out, _ = run(capsys, ["gn", "--n", "3", "--mbar", "1", "--compute"])
        assert code == 0
        assert out == "case=gn(n=3,mbar=1) expected=4 computed=4 pass=true\n"

    def test_compute_larger_values(self, capsys):
        code, out, _ = run(capsys, ["gn", "--n", "4", "--mbar", "1", "--compute"])
        assert code == 0 and "expected=16 computed=16" in out
        code, out, _ = run(capsys, ["gn", "--n", "2", "--mbar", "3", "--compute"])
        assert code == 0 and "expected=576 computed=576" in out

    def test_unwritable_emit_path_names_the_write(self, capsys, tmp_path):
        path = tmp_path / "missing" / "gn.graph"
        code, out, err = run(capsys, ["gn", "--n", "3", "--mbar", "1", "--emit", str(path)])
        assert (code, out) == (3, "")
        assert err.startswith("cannot write output: ") and str(path) in err

    def test_full_stdout_names_the_write(self):
        if not Path("/dev/full").exists():
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            proc = cli_process(["gn", "--n", "3", "--mbar", "1", "--compute"], stdout=full)
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 3
        assert err.startswith(b"cannot write output: [Errno 28] ")

    def test_emit_round_trips(self, capsys, tmp_path):
        path = tmp_path / "gn.graph"
        code, out, _ = run(capsys, ["gn", "--n", "3", "--mbar", "2", "--emit", str(path)])
        assert code == 0
        assert f"emitted={path}" in out
        assert parse_graph(path.read_text(encoding="utf-8")) == make_gn(3, 2)

    def test_mismatch_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gn_closed_form", lambda n, mbar: 999)
        code, out, _ = run(capsys, ["gn", "--n", "2", "--mbar", "1", "--compute"])
        assert code == 2
        assert "pass=false" in out

    def test_range_usage_errors(self, capsys):
        assert run(capsys, ["gn", "--n", "1", "--mbar", "1", "--compute"])[0] == 1
        assert run(capsys, ["gn", "--n", "2", "--mbar", "0", "--compute"])[0] == 1


class TestVerifyCommand:
    def test_gn_formulas_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "gn-formulas"])
        assert code == 0
        assert "suite=gn-formulas seed=0" in out
        assert "result=PASS" in out
        assert out.count("pass=true") == 9

    def test_reports_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, ["verify", "--suite", "swan", "--seed", "7"])
        _, second, _ = run(capsys, ["verify", "--suite", "swan", "--seed", "7"])
        assert first == second
        assert "200" in first

    def test_failure_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gn_closed_form", lambda n, mbar: 999)
        code, out, _ = run(capsys, ["verify", "--suite", "gn-formulas"])
        assert code == 2
        assert "result=FAIL" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["verify", "--suite", "nope"])
        assert code == 1


class TestExhaustiveCommand:
    def test_one_vertex_histogram(self, capsys):
        code, out, _ = run(capsys, ["exhaustive", "--n", "1", "--k", "2", "--bmax", "2"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n=1 k=2 bmax=2"
        assert "T=0 classes=2" in lines
        assert "T=2 classes=1" in lines
        assert any(line.startswith("witness T=2") for line in lines)

    def test_lower_bound_witness_exists(self, capsys):
        code, out, _ = run(capsys, ["exhaustive", "--n", "2", "--k", "5", "--bmax", "2"])
        assert code == 0
        assert "witness T=" in out
        stream = brute_marked_graphs(2, 5, 2)
        for g in stream:
            S, _ = brute_signed_sum(g)
            if S != 0:
                break
        for _ in stream:    # the counters are those of the whole stream
            pass
        lines = out.splitlines()
        assert f"witness T={abs(S)} {g.compact()}" in lines
        assert lines[-1] == (f"classes={stream.yielded} "
                             f"skipped_unbalanced={stream.skipped_unbalanced} "
                             f"skipped_infeasible={stream.skipped_infeasible}")

    def test_identity_range_is_all_zero(self, capsys):
        code, out, _ = run(capsys, ["exhaustive", "--n", "2", "--k", "6", "--bmax", "3"])
        assert code == 0
        assert "witness" not in out
        histogram = [line for line in out.splitlines() if line.startswith("T=")]
        assert len(histogram) == 1 and histogram[0].startswith("T=0 classes=")

    def test_k_past_255_is_searched(self, capsys):
        code, out, _ = run(capsys, ["exhaustive", "--n", "1", "--k", "256", "--bmax", "0"])
        assert code == 0
        assert out.splitlines()[1:] == ["T=0 classes=1",
                                        "classes=1 skipped_unbalanced=0 skipped_infeasible=0"]
        code, out, err = run(capsys, ["exhaustive", "--n", "1", "--k", "0", "--bmax", "0"])
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ")

    def test_prints_T_past_the_default_digit_limit(self, capsys):
        # T = 320! has 665 digits, past the lowest limit Python can be set to
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, _ = run(capsys, ["exhaustive", "--n", "1", "--k", "320", "--bmax", "320"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        assert f"T={math.factorial(320)} classes=1" in out.splitlines()

    def test_largest_one_vertex_class_is_quick(self, capsys):
        # the one class at k=255 is 255 unmarked loops, which repeat a type:
        # the DP's universal graph holds one unmarked loop, fewer edges than
        # k, so no class is repeat-free and no DP runs
        argv = ["exhaustive", "--n", "1", "--k", "255", "--bmax", "0"]
        start = time.perf_counter()
        code, out, _ = run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out.splitlines()[1:] == ["T=0 classes=1",
                                        "classes=1 skipped_unbalanced=0 skipped_infeasible=0"]
        assert run(capsys, argv + ["--budget", "1"])[0] == 0

    def test_budget_reaches_the_trail_dp(self, capsys):
        # the one trail DP of (2,5,2) runs under the budget
        code, _, err = run(capsys, ["exhaustive", "--n", "2", "--k", "5", "--bmax", "2",
                                    "--budget", "1"])
        assert code == 4
        assert "budget" in err

    def test_guard_refuses_huge_space(self, capsys):
        code, _, err = run(capsys, ["exhaustive", "--n", "4", "--k", "12", "--bmax", "3"])
        assert code == 1
        assert "guard" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, ["exhaustive", "--n", "2", "--k", "4", "--bmax", "1"])
        _, second, _ = run(capsys, ["exhaustive", "--n", "2", "--k", "4", "--bmax", "1"])
        assert first == second

    def test_guard_counts_the_mark_bound(self, capsys):
        argv = ["exhaustive", "--n", "2", "--k", "4", "--bmax", "1", "--max-classes"]
        code, _, _ = run(capsys, argv + [str(search_space(2, 4, 1))])
        assert code == 0
        code, _, err = run(capsys, argv + [str(search_space(2, 4, 1) - 1)])
        assert code == 1
        assert "guard" in err

    def test_negative_guard_is_usage_error(self, capsys):
        argv = ["exhaustive", "--n", "2", "--k", "4", "--bmax", "1", "--max-classes"]
        code, out, err = run(capsys, argv + ["-1"])
        assert (code, out) == (1, "")
        assert err == ("usage error: need --n >= 1, --k >= 1, --bmax >= 0 "
                       "and --max-classes >= 0\n")
        code, out, err = run(capsys, argv + ["0"])
        assert (code, out) == (1, "")
        assert "guard of 0" in err

    @pytest.mark.parametrize("n, k, bmax", [(2, 5, 2), (2, 6, 3), (3, 5, 2), (1, 3, 2), (3, 6, 2)])
    def test_stdout_matches_one_sum_per_class(self, capsys, n, k, bmax):
        argv = ["exhaustive", "--n", str(n), "--k", str(k), "--bmax", str(bmax)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == _one_sum_per_class(n, k, bmax, lambda g: signed_sum(g).T)

    def test_stop_on_witness_is_unrecognized(self, capsys):
        # the search decides every class in one DP, so there is no early stop
        code, out, err = run(capsys, ["exhaustive", "--n", "2", "--k", "5", "--bmax", "2",
                                      "--stop-on-witness"])
        assert (code, out) == (1, "")
        assert err == "usage error: unrecognized arguments: --stop-on-witness\n"

    def test_orbit_line_on_stderr(self, capsys):
        # the one trail DP's counters: states created, the largest layer, and
        # the classes with T != 0 at root pairs (1, 1) and (1, 2)
        code, out, err = run(capsys, ["exhaustive", "--n", "3", "--k", "6", "--bmax", "2"])
        assert code == 0
        match = re.fullmatch(r"states=(\d+) largest_layer=(\d+) nonzero_records=(\d+) "
                             r"elapsed=\d+\.\d{3}s\n", err)
        assert match is not None
        assert tuple(map(int, match.groups())) == (2406, 616, 388)
        assert out.splitlines()[-1].startswith("classes=12252 ")
        assert "states" not in out


def _one_sum_per_class(n, k, bmax, T):
    """The exhaustive report folded over the full class list, T once per class."""
    records = enumerate_marked_graphs(n, k, bmax)
    histogram, witness = {}, None
    for g in (class_graph(n, record) for record in records):
        value = T(g)
        histogram[value] = histogram.get(value, 0) + 1
        if value and witness is None:
            witness = f"witness T={value} {g.compact()}"
    # the balanced multisets of the search space that are not listed are
    # infeasible, counted at every root pair with no orbit scaling
    infeasible = sum(count_classes(n, k, bmax, roots)[2]
                     for roots in itertools.product(range(1, n + 1), repeat=2))
    unbalanced = search_space(n, k, bmax) - len(records) - infeasible
    expected = [f"n={n} k={k} bmax={bmax}"]
    expected += [f"T={value} classes={histogram[value]}" for value in sorted(histogram)]
    expected += [witness] if witness else []
    expected.append(f"classes={len(records)} skipped_unbalanced={unbalanced} "
                    f"skipped_infeasible={infeasible}")
    return "\n".join(expected) + "\n"


def _loops_between_distinct_roots(g):
    """A stand-in for T: constant on orbits, nonzero only when s != t.

    Like a real T it is 0 on a class that repeats an unmarked edge type,
    which the trail DP (class_sums) never holds.
    """
    if g.s == g.t or repeats_unmarked_type(g):
        return 0
    return sum(u == v for u, v in g.edges)


class TestDistinctRootsWitness:
    """No real size has its first witness at s != t, so T is replaced."""

    @pytest.fixture(autouse=True)
    def fake_sum(self, monkeypatch):
        def fake(n, k, bmax, max_nodes=None):
            # the DP's output with the stand-in T as S, at the root pairs (1, t)
            # of root_orbits
            listed = enumerate_marked_graphs(n, k, bmax)
            records = {}
            for (_, t), _ in digraph.root_orbits(n):
                values = ((record, _loops_between_distinct_roots(class_graph(n, record)))
                          for record in listed if record[:2] == (1, t))
                records[t] = {record: value for record, value in values if value}
            return ClassSums(records, 0, 0)
        monkeypatch.setattr(bridge, "class_sums", fake)

    @pytest.mark.parametrize("n, k, bmax", [(2, 5, 2), (3, 5, 2)])
    def test_exhaustive_stdout(self, capsys, n, k, bmax):
        argv = ["exhaustive", "--n", str(n), "--k", str(k), "--bmax", str(bmax)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        expected = _one_sum_per_class(n, k, bmax, _loops_between_distinct_roots)
        assert "witness T=" in expected and " s=1 t=2 " in expected
        assert out == expected

    @pytest.mark.parametrize("n, m, k", [(2, 2, 5), (3, 2, 5), (3, 0, 4)])
    def test_identity_verdict(self, n, m, k):
        checked, witness = 0, None
        for g in (class_graph(n, record) for record in enumerate_marked_graphs(n, k, m)):
            checked += 1
            if witness is None and _loops_between_distinct_roots(g):
                witness = g
        assert witness is not None and (witness.s, witness.t) == (1, 2)
        found = bridge.search_classes(n, k, m)
        assert (found.witness, found.classes) == (witness, checked)


class TestUsageAndHelp:
    def test_no_command(self, capsys):
        assert run(capsys, [])[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 1

    def test_help_exits_0(self, capsys):
        assert run(capsys, ["--help"])[0] == 0
        assert run(capsys, ["signed-sum", "--help"])[0] == 0
        assert run(capsys, ["verify", "--help"])[0] == 0

    def test_negative_budget_is_usage_error(self, capsys, g2_file):
        for argv in (["signed-sum", g2_file], ["gn", "--n", "2", "--mbar", "1", "--compute"],
                     ["verify", "--suite", "gn-formulas"],
                     ["exhaustive", "--n", "2", "--k", "4", "--bmax", "1"]):
            code, out, err = run(capsys, argv + ["--budget", "-1"])
            assert (code, out, err) == (1, "", "usage error: need --budget >= 0\n")
        code, out, _ = run(capsys, ["exhaustive", "--n", "1", "--k", "2", "--bmax", "0",
                                    "--budget", "0"])
        assert (code, out.splitlines()[1]) == (0, "T=0 classes=1")

    def test_numeric_options_are_ascii_digits(self, capsys):
        for argv, option, token in (
                (["gn", "--n", "\u0663", "--mbar", "1", "--compute"], "--n", "'\u0663'"),
                (["exhaustive", "--n", "2", "--k", "1_0", "--bmax", "1"], "--k", "'1_0'"),
                (["verify", "--suite", "swan", "--seed", "\u0667"], "--seed", "'\u0667'")):
            code, out, err = run(capsys, argv)
            assert (code, out) == (1, "")
            assert err == f"usage error: argument {option}: invalid integer value: {token}\n"
