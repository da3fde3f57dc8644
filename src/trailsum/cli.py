"""Command-line surface: single computations, the witness family, theorem
verification suites, and exhaustive search over small marked graphs.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 graph file
format error or a file that cannot be read or written, 4 search budget
exceeded, memory exhausted or recursion limit hit, 141 standard output
closed by its reader (the shell's code for SIGPIPE).  All reports are plain
text with one key=value line per case; identical invocations produce
byte-identical stdout (wall-clock timings go to stderr).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field

from . import bridge, digraph, trails
from .digraph import GraphFormatError, MarkedDigraph, enumerate_marked_graphs, integer, make_gn
from .trails import (AtPosition, BudgetExceededError, Precedes, Subtrail, check_constraint,
                     filtered_signed_sum, signed_sum, signed_trails)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass
class VerificationReport:
    suite: str
    seed: int
    cases: list[tuple[str, str, str, bool]] = field(default_factory=list)

    def add(self, case_id: str, expected, computed):
        expected, computed = str(expected), str(computed)
        self.cases.append((case_id, expected, computed, expected == computed))

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c[3])

    @property
    def failed(self) -> int:
        return len(self.cases) - self.passed

    def render(self) -> str:
        lines = [f"suite={self.suite} seed={self.seed}"]
        for case_id, expected, computed, ok in self.cases:
            lines.append(f"case={case_id} expected={expected} computed={computed} "
                         f"pass={'true' if ok else 'false'}")
        verdict = "PASS" if self.failed == 0 else "FAIL"
        lines.append(f"suite={self.suite} cases={len(self.cases)} passed={self.passed} "
                     f"failed={self.failed} result={verdict}")
        return "\n".join(lines) + "\n"


def gn_closed_form(n: int, mbar: int) -> int:
    if n == 2:
        return math.factorial(mbar + 1) ** 2
    return 2 * mbar * math.factorial(mbar + n - 1) * math.factorial(mbar) // 3


# -- verification suites -----------------------------------------------------

def suite_gn_formulas(seed: int, budget: int) -> VerificationReport:
    rep = VerificationReport("gn-formulas", seed)
    for mbar in (1, 2, 3):
        r = signed_sum(make_gn(2, mbar), max_nodes=budget)
        rep.add(f"S(G2,mbar={mbar})", gn_closed_form(2, mbar), r.S)
        rep.add(f"trails(G2,mbar={mbar})",
                math.factorial(mbar + 1) ** 2 * (mbar + 1), r.trail_count)
    for mbar in (1, 2, 3):
        r = signed_sum(make_gn(3, mbar), max_nodes=budget)
        rep.add(f"S(G3,mbar={mbar})", gn_closed_form(3, mbar), r.S)
    return rep


def suite_recursion(seed: int, budget: int) -> VerificationReport:
    rep = VerificationReport("recursion", seed)
    S = functools.cache(lambda n, mbar: signed_sum(make_gn(n, mbar), max_nodes=budget).S)
    for n in (4, 5, 6, 7):
        for mbar in (1, 2):
            rep.add(f"S(G{n},mbar={mbar})=(mbar+{n}-1)*S(G{n - 1})",
                    (mbar + n - 1) * S(n - 1, mbar), S(n, mbar))
    rep.add("S(G4,mbar=1)", 16, S(4, 1))
    rep.add("S(G5,mbar=1)", 80, S(5, 1))
    return rep


def suite_lower_bound(seed: int, budget: int) -> VerificationReport:
    rep = VerificationReport("lower-bound", seed)
    for n in (2, 3, 4):
        for mbar in (1, 2):
            g = make_gn(n, mbar)
            rep.add(f"edges(G{n},mbar={mbar})", 2 * mbar + 4 * n - 5, g.k)
            r = signed_sum(g, max_nodes=budget)
            rep.add(f"T(G{n},mbar={mbar})>0", True, r.T > 0)
    return rep


def suite_upper_n2(seed: int, budget: int) -> VerificationReport:
    rep = VerificationReport("upper-n2", seed)
    for k in (6, 7):
        found = bridge.search_classes(2, k, 3, max_nodes=budget)
        violations = sum(count for value, count in found.histogram if value)
        rep.add(f"classes(n=2,k={k},bmax=3) with T!=0 of {found.classes}", 0, violations)
    return rep


def suite_amitsur_levitzki(seed: int, budget: int) -> VerificationReport:
    rep = VerificationReport("amitsur-levitzki", seed)
    found = bridge.search_classes(2, 4, 0, max_nodes=budget)
    violations = sum(count for value, count in found.histogram if value)
    rep.add(f"unmarked classes(n=2,k=4) with T!=0 of {found.classes}", 0, violations)
    rng = random.Random(seed)
    violations = 0
    for _ in range(100):
        g = digraph.random_feasible_graph(rng, 3, 6, bmax=0)
        if signed_sum(g, max_nodes=budget).T != 0:
            violations += 1
    rep.add("sampled unmarked graphs(n=3,k=6) with T!=0 of 100", 0, violations)
    return rep


def suite_swan(seed: int, budget: int) -> VerificationReport:
    rep = VerificationReport("swan", seed)
    rng = random.Random(seed)
    failures = 0
    for _ in range(200):
        n = rng.choice((2, 3))
        k = rng.randint(3, 7)
        g = digraph.random_feasible_graph(rng, n, k, bmax=3, require_nonloop=True)
        nonloops = [i for i, (u, v) in enumerate(g.edges, start=1) if u != v]
        a = rng.choice(nonloops)
        lhs, rhs = trails.swan_identity(g, a, max_nodes=budget)
        if lhs != rhs:
            failures += 1
    rep.add("loop-resolution identity failures of 200", 0, failures)
    return rep


def suite_bridge(seed: int, budget: int) -> VerificationReport:
    rep = VerificationReport("bridge", seed)
    rng = random.Random(seed)
    failures = 0
    for _ in range(100):
        n = rng.randint(1, 3)
        k = rng.randint(2, 8)
        g = digraph.random_feasible_graph(rng, n, k, bmax=3)
        if not bridge.cross_check(g, max_nodes=budget).agrees:
            failures += 1
    rep.add("cross-check failures on 100 sampled graphs", 0, failures)
    failures = 0
    total = 0
    for record in enumerate_marked_graphs(2, 6, bmax=3):
        total += 1
        if not bridge.cross_check(digraph.class_graph(2, record), max_nodes=budget).agrees:
            failures += 1
    rep.add(f"cross-check failures on all {total} classes(n=2,k=6,bmax=3)", 0, failures)
    return rep


def _swap_candidates(g: MarkedDigraph, sigma: tuple[int, ...], max_len: int = 3):
    """All disjoint parallel run pairs of bounded length inside one trail."""
    k = len(sigma)
    for i in range(k):
        for li in range(1, min(max_len, k - i) + 1):
            q1 = sigma[i:i + li]
            for j in range(i + li, k):
                for lj in range(1, min(max_len, k - j) + 1):
                    q2 = sigma[j:j + lj]
                    if (g.edges[q1[0] - 1][0] == g.edges[q2[0] - 1][0]
                            and g.edges[q1[-1] - 1][1] == g.edges[q2[-1] - 1][1]):
                        yield q1, q2


def suite_signs(seed: int, budget: int) -> VerificationReport:
    rep = VerificationReport("signs", seed)
    rng = random.Random(seed)

    failures = 0
    plain_failures = 0
    for _ in range(100):
        g = digraph.random_feasible_graph(rng, rng.randint(1, 3), rng.randint(2, 6), bmax=3)
        pi = list(range(1, g.k + 1))
        rng.shuffle(pi)
        g2, rel = trails.relabel(g, pi)
        r1 = signed_sum(g, max_nodes=budget)
        r2 = signed_sum(g2, max_nodes=budget)
        if r2.S != rel * r1.S or r2.T != r1.T:
            failures += 1
        M = g.marked_indices()
        preserved = trails.sigma_M(trails.invert_permutation(pi), M) == tuple(
            range(1, len(M) + 1))
        if preserved and rel != trails.sgn_perm(pi):
            plain_failures += 1
    rep.add("relabel law failures of 100", 0, failures)
    rep.add("relabel plain-sign failures on order-preserving pi", 0, plain_failures)

    applicable = 0
    failures = 0
    for _ in range(50):
        g = digraph.random_feasible_graph(rng, rng.randint(1, 3), rng.randint(3, 6), bmax=3)
        for count, (trail, sg, sm) in enumerate(signed_trails(g, budget)):
            if count >= 25:
                break
            for q1, q2 in _swap_candidates(g, trail):
                applicable += 1
                swapped, ps, psm = trails.swap_parallel_subtrails(g, trail, q1, q2)
                if not trails.is_trail(g, swapped):
                    failures += 1
                    continue
                sg2, sm2 = trails.trail_signs(g, swapped)
                if sg2 != ps * sg or sm2 != psm * sm:
                    failures += 1
    rep.add(f"swap-sign prediction failures of {applicable}", 0, failures)

    failures = 0
    for _ in range(50):
        g = digraph.random_feasible_graph(rng, rng.randint(1, 3), rng.randint(2, 6), bmax=3)
        all_trails = list(signed_trails(g, budget))
        base = rng.choice(all_trails)[0]
        kind = rng.choice(("subtrail", "precedes", "at"))
        if kind == "subtrail":
            i = rng.randrange(len(base))
            j = rng.randint(i + 1, len(base))
            c = Subtrail(base[i:j])
        elif kind == "precedes" and len(base) >= 2:
            i = rng.randrange(len(base) - 1)
            j = rng.randint(i + 1, len(base) - 1)
            c = Precedes(base[i:i + 1], base[j:j + 1])
        else:
            c = AtPosition(rng.choice(base), rng.randint(1, len(base)))
        part = filtered_signed_sum(g, [c], max_nodes=budget)
        rest = 0
        for trail, sg, sm in all_trails:
            if not c.satisfied(trail):
                rest += sg * sm
        if part + rest != signed_sum(g, max_nodes=budget).S:
            failures += 1
    rep.add("partition additivity failures of 50", 0, failures)

    failures = 0
    for _ in range(100):
        g = digraph.random_feasible_graph(rng, rng.randint(1, 3), rng.randint(2, 6), bmax=3)
        gop = digraph.opposite(g)
        r1 = signed_sum(g, max_nodes=budget)
        r2 = signed_sum(gop, max_nodes=budget)
        b = len(g.marked)
        factor = -1 if (g.k * (g.k - 1) // 2 + b * (b - 1) // 2) & 1 else 1
        if r2.T != r1.T or r2.S != factor * r1.S:
            failures += 1
    rep.add("opposite-graph sign failures of 100", 0, failures)
    return rep


SUITES = {
    "gn-formulas": suite_gn_formulas,
    "recursion": suite_recursion,
    "lower-bound": suite_lower_bound,
    "upper-n2": suite_upper_n2,
    "amitsur-levitzki": suite_amitsur_levitzki,
    "swan": suite_swan,
    "bridge": suite_bridge,
    "signs": suite_signs,
}


# -- commands -----------------------------------------------------------------

def parse_constraint(spec: str, g: MarkedDigraph):
    """The constraint spec names, once its edges and position fit g."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise _UsageError(f"bad constraint {spec!r}: expected '<kind>:...'")
    if kind not in ("subtrail", "precedes", "at"):
        raise _UsageError(f"unknown constraint kind {kind!r} "
                          "(use subtrail:..., precedes:...|..., at:...@...)")
    try:
        if kind == "subtrail":
            c = Subtrail(tuple(integer(x) for x in rest.split(",")))
        elif kind == "precedes":
            a, sep2, b = rest.partition("|")
            if not sep2:
                raise ValueError("missing '|'")
            c = Precedes(tuple(integer(x) for x in a.split(",")),
                         tuple(integer(x) for x in b.split(",")))
        else:
            e, sep2, p = rest.partition("@")
            if not sep2:
                raise ValueError("missing '@'")
            c = AtPosition(integer(e), integer(p))
        check_constraint(g, c)
    except ValueError as exc:
        raise _UsageError(f"bad constraint {spec!r}: {exc}") from None
    return c


def cmd_signed_sum(args) -> int:
    start = time.perf_counter()
    try:
        g = digraph.read_graph_file(args.graph_file)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 3
    constraints = [parse_constraint(spec, g) for spec in args.filter]
    walk = None
    if args.list_trails:
        # Streamed line by line: a listing can be far larger than the graph.
        # The walk builds each trail's text, with a leading comma, from these.
        walk = signed_trails(g, args.budget, [""] + [f",{e}" for e in range(1, g.k + 1)])
        write = sys.stdout.write
        tails = {(sg, sm): f" sgn={sg:+d} sgn_M={sm:+d}\n" for sg in (1, -1) for sm in (1, -1)}
        total = listed = 0
        for text, sg, sm in walk:
            write("trail=" + text[1:] + tails[sg, sm])
            total += sg * sm
            listed += 1
    r = signed_sum(g, max_nodes=args.budget)
    print(f"S={r.S} T={r.T} trails={r.trail_count}")
    # The walk lists every trail; the DP takes parallel edges of one type in
    # index order and scales, and the count comes from the BEST theorem, so
    # the fold checks both on each listing.
    if walk is not None and (total, listed) != (r.S, r.trail_count):
        print(f"error: the listed trails give S={total} trails={listed}, "
              f"the DP S={r.S} trails={r.trail_count}", file=sys.stderr)
        return 2
    if constraints:
        part = filtered_signed_sum(g, constraints, max_nodes=args.budget)
        print(f"filtered={part}")
    stats = "" if walk is None else (f"listed={listed} steps={walk.steps} "
                                     f"floods={walk.floods} ")
    print(f"{stats}elapsed={time.perf_counter() - start:.3f}s", file=sys.stderr)
    return 0


def cmd_gn(args) -> int:
    if args.n < 2 or args.mbar < 1:
        raise _UsageError("need --n >= 2 and --mbar >= 1")
    g = make_gn(args.n, args.mbar)
    if args.emit:
        digraph.write_graph_file(g, args.emit)
        print(f"emitted={args.emit} n={args.n} mbar={args.mbar} edges={g.k}")
        return 0
    expected = gn_closed_form(args.n, args.mbar)
    computed = signed_sum(g, max_nodes=args.budget).S
    ok = expected == computed
    print(f"case=gn(n={args.n},mbar={args.mbar}) expected={expected} "
          f"computed={computed} pass={'true' if ok else 'false'}")
    return 0 if ok else 2


def cmd_verify(args) -> int:
    start = time.perf_counter()
    report = SUITES[args.suite](args.seed, args.budget)
    elapsed = time.perf_counter() - start
    sys.stdout.write(report.render())
    print(f"elapsed={elapsed:.3f}s", file=sys.stderr)
    return 0 if report.failed == 0 else 2


def cmd_exhaustive(args) -> int:
    if args.n < 1 or args.k < 1 or args.bmax < 0 or args.max_classes < 0:
        raise _UsageError("need --n >= 1, --k >= 1, --bmax >= 0 and --max-classes >= 0")
    start = time.perf_counter()
    try:
        found = bridge.search_classes(args.n, args.k, args.bmax, max_nodes=args.budget,
                                      max_classes=args.max_classes)
    except ValueError as exc:
        raise _UsageError(f"{exc}; raise --max-classes to proceed") from None
    print(f"n={args.n} k={args.k} bmax={args.bmax}")
    for value, count in found.histogram:
        print(f"T={value} classes={count}")
    if found.witness is not None:
        print(f"witness T={found.witness_T} {found.witness.compact()}")
    print(f"classes={found.classes} skipped_unbalanced={found.skipped_unbalanced} "
          f"skipped_infeasible={found.skipped_infeasible}")
    print(f"states={found.states} largest_layer={found.largest_layer} "
          f"nonzero_records={found.nonzero_records} "
          f"elapsed={time.perf_counter() - start:.3f}s", file=sys.stderr)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="trailsum",
                     description="Exact signed Eulerian-trail sums on marked digraphs "
                                 "and their matrix-algebra counterpart.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("signed-sum", help="compute S, T and the trail count of a graph file")
    p.add_argument("graph_file")
    p.add_argument("--list-trails", action="store_true",
                   help="print every trail with its two signs")
    p.add_argument("--filter", action="append", default=[], metavar="SPEC",
                   help="constraint: subtrail:3,5,2 | precedes:1,2|4 | at:4@7 "
                        "(repeatable; prints the constrained partial sum)")
    p.add_argument("--budget", type=integer, default=trails.DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_signed_sum)

    p = sub.add_parser("gn", help="emit or verify the lower-bound witness graph")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--mbar", type=integer, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--emit", metavar="PATH", help="write the graph file")
    group.add_argument("--compute", action="store_true",
                       help="compare the enumerated sum against the closed form")
    p.add_argument("--budget", type=integer, default=trails.DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_gn)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--budget", type=integer, default=trails.DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exhaustive",
                       help="histogram T over every marked-graph class")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--k", type=integer, required=True)
    p.add_argument("--bmax", type=integer, required=True)
    p.add_argument("--budget", type=integer, default=trails.DEFAULT_NODE_BUDGET)
    p.add_argument("--max-classes", type=integer, default=bridge.DEFAULT_MAX_CLASSES)
    p.set_defaults(func=cmd_exhaustive)
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):     # Python 3.10.7 and later
        sys.set_int_max_str_digits(0)   # print T, S and trail counts in full
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (None, 0) else 1
    try:
        if args.budget < 0:
            raise _UsageError("need --budget >= 0")
        code = args.func(args)
        sys.stdout.flush()      # a closed stdout fails here, not at shutdown
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except GraphFormatError as exc:
        print(f"graph format error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout; the flush at shutdown must not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:      # graph files are read in cmd_signed_sum
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4
    except RecursionError:
        print("error: Python recursion limit exceeded", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
