"""Doubly-rooted directed multigraphs with a marked edge subset.

Vertices are 1..n.  Edges form an ordered list; the order is significant
because it fixes the permutation signs computed by the trails module.  Loops
and parallel edges are allowed.  ``marked`` holds the 1-based indices of the
distinguished edges.

The module also provides the witness family ``make_gn``, the root-absorbing
extension, the opposite graph, the two loop-creating edge surgeries, a
one-pass list of the feasible classes of small marked graphs up to edge
relabelling (as per-type count records), their counts by a generating function
(``count_classes``), a seeded sampler of trail-feasible graphs, and a strict
line-oriented text format used by the command line tools.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass


class GraphFormatError(ValueError):
    """Malformed graph text; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class MarkedDigraph:
    n: int
    edges: tuple[tuple[int, int], ...]
    s: int
    t: int
    marked: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((u, v) for u, v in self.edges))
        object.__setattr__(self, "marked", frozenset(self.marked))
        for x in itertools.chain((self.n, self.s, self.t), self.marked, *self.edges):
            if type(x) is not int:
                raise TypeError(f"graph values must be ints, not {x!r}")
        if self.n < 1:
            raise ValueError("vertex count must be at least 1")
        for i, (u, v) in enumerate(self.edges, start=1):
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge {i} endpoint outside 1..{self.n}")
        if not (1 <= self.s <= self.n and 1 <= self.t <= self.n):
            raise ValueError(f"roots ({self.s},{self.t}) outside 1..{self.n}")
        k = len(self.edges)
        for j in self.marked:
            if not 1 <= j <= k:
                raise ValueError(f"marked index {j} outside 1..{k}")

    @property
    def k(self) -> int:
        return len(self.edges)

    def marked_indices(self) -> tuple[int, ...]:
        """Ascending indices of the marked edges."""
        return tuple(sorted(self.marked))

    def compact(self) -> str:
        """One-line rendering; a trailing * flags a marked edge."""
        parts = []
        for i, (u, v) in enumerate(self.edges, start=1):
            parts.append(f"{u}>{v}" + ("*" if i in self.marked else ""))
        return f"n={self.n} s={self.s} t={self.t} edges=" + ",".join(parts)


def _spans(near: list[int], start: int) -> bool:
    """Whether a flood from vertex start over the neighbour bitmasks near
    (bit y of near[x] set when an edge joins x and y) reaches exactly the
    vertices that have a neighbour, start among them."""
    seen = todo = 1 << start
    while todo:
        x = todo.bit_length() - 1
        fresh = near[x] & ~seen
        seen |= fresh
        todo = (todo ^ (1 << x)) | fresh
    return seen == functools.reduce(operator.or_, near)


def validate(g: MarkedDigraph) -> bool:
    """Whether g has an Eulerian trail from s to t.

    With edges, that holds exactly when indeg(v) + [v = s] = outdeg(v) +
    [v = t] at every vertex and a flood from s reaches every vertex on an
    edge (balance puts t on an edge when t != s); with none, when s = t.
    The roots and the vertices on edges are numbered 0, 1, ... first, so
    the cost does not grow with n.
    """
    if not g.edges:
        return g.s == g.t
    index: dict[int, int] = {}
    for x in itertools.chain((g.s, g.t), *g.edges):
        index.setdefault(x, len(index))
    net = [0] * len(index)          # indeg + [v = s] - outdeg - [v = t]
    near = [0] * len(index)
    net[index[g.s]] += 1
    net[index[g.t]] -= 1
    for u, v in g.edges:
        i, j = index[u], index[v]
        net[i] -= 1
        net[j] += 1
        near[i] |= 1 << j
        near[j] |= 1 << i
    return not any(net) and _spans(near, index[g.s])


def make_gn(n: int, mbar: int) -> MarkedDigraph:
    """The lower-bound witness graph on n vertices with 2*mbar marked edges.

    Roots are (1, 2) and the enumeration is fixed: mbar two-edge circles
    between 1 and 2 (all marked), a loop on 1, one more (1,2) edge, a
    four-edge gadget 1 <-> h <-> h-1 for each vertex h = 3..n, and a final
    loop on n.  Total edge count is 2*mbar + 4n - 5.
    """
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if mbar < 1:
        raise ValueError("need at least one marked circle")
    m = 2 * mbar
    edges: list[tuple[int, int]] = []
    for _ in range(mbar):
        edges.append((1, 2))
        edges.append((2, 1))
    edges.append((1, 1))
    edges.append((1, 2))
    for h in range(3, n + 1):
        edges.append((h - 1, h))
        edges.append((h, 1))
        edges.append((1, h))
        edges.append((h, h - 1))
    edges.append((n, n))
    return MarkedDigraph(n, tuple(edges), 1, 2, frozenset(range(1, m + 1)))


def extend(g: MarkedDigraph) -> MarkedDigraph:
    """Absorb the roots: new vertex r with a first edge (r,s) and a last (t,r).

    The new edges sit at the extreme ends of both enumeration and every
    trail, so the signed trail sum is unchanged.
    """
    r = g.n + 1
    edges = ((r, g.s),) + g.edges + ((g.t, r),)
    return MarkedDigraph(r, edges, r, r, frozenset(j + 1 for j in g.marked))


def opposite(g: MarkedDigraph) -> MarkedDigraph:
    """Reverse every edge in place and swap the roots; marking is unchanged."""
    return MarkedDigraph(g.n, tuple((v, u) for u, v in g.edges), g.t, g.s, g.marked)


def surgery_in(g: MarkedDigraph, a: int, c: int) -> MarkedDigraph:
    """Turn edge a into a loop at its head; redirect incoming edge c there.

    Requires a non-loop, c != a and c pointing at the tail of a.  Both
    replacements keep their indices, so marking carries through unchanged.
    """
    if not 1 <= a <= g.k or not 1 <= c <= g.k:
        raise ValueError("edge index out of range")
    am, ap = g.edges[a - 1]
    if am == ap:
        raise ValueError(f"edge {a} is a loop")
    if c == a:
        raise ValueError("the redirected edge must differ from a")
    if g.edges[c - 1][1] != am:
        raise ValueError(f"edge {c} does not end at the tail of edge {a}")
    edges = list(g.edges)
    edges[a - 1] = (ap, ap)
    edges[c - 1] = (g.edges[c - 1][0], ap)
    return MarkedDigraph(g.n, tuple(edges), g.s, g.t, g.marked)


def surgery_out(g: MarkedDigraph, a: int, d: int) -> MarkedDigraph:
    """Turn edge a into a loop at its head; restart outgoing edge d at its tail."""
    if not 1 <= a <= g.k or not 1 <= d <= g.k:
        raise ValueError("edge index out of range")
    am, ap = g.edges[a - 1]
    if am == ap:
        raise ValueError(f"edge {a} is a loop")
    if d == a:
        raise ValueError("the redirected edge must differ from a")
    if g.edges[d - 1][0] != ap:
        raise ValueError(f"edge {d} does not start at the head of edge {a}")
    edges = list(g.edges)
    edges[a - 1] = (ap, ap)
    edges[d - 1] = (am, g.edges[d - 1][1])
    return MarkedDigraph(g.n, tuple(edges), g.s, g.t, g.marked)


# A class as the roots s, t and one (u, v, marked, multiplicity) entry per
# edge type it uses, in ascending type order (see ``class_record``).
ClassRecord = tuple[int, int, tuple[tuple[int, int, int, int], ...]]


def class_record(g: MarkedDigraph) -> ClassRecord:
    """The class of g as (s, t, types): the roots, then one (u, v, marked,
    multiplicity) entry per edge type of g in ascending type order.

    These are the records ``enumerate_marked_graphs`` lists, with marked
    0 or 1; ``class_graph`` turns one back into a representative.
    """
    counts: dict[tuple[int, int, int], int] = {}
    for i, (u, v) in enumerate(g.edges, start=1):
        key = (u, v, int(i in g.marked))
        counts[key] = counts.get(key, 0) + 1
    return g.s, g.t, tuple(sorted(key + (m,) for key, m in counts.items()))


def class_graph(n: int, record: ClassRecord) -> MarkedDigraph:
    """The representative on n vertices of a class record (``class_record``).

    Each type's edges follow in record order, and the marked flag marks all
    of them; a listed record gives edges in sorted triple order.
    """
    s, t, types = record
    edges: list[tuple[int, int]] = []
    marked: list[int] = []
    for u, v, f, m in types:
        edges.extend([(u, v)] * m)
        if f:
            marked.extend(range(len(edges) - m + 1, len(edges) + 1))
    return MarkedDigraph(n, tuple(edges), s, t, frozenset(marked))


def root_orbits(n: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """Root pairs (1, 1) and, for n >= 2, (1, 2), each with its orbit's size.

    A vertex relabelling p with p(1) = s (and p(2) = t) maps the classes at
    (1, 1) one to one onto those at (s, s) (and the classes at (1, 2) onto
    those at (s, t)), keeping k, the number of marked edges, balance,
    feasibility and T.  So the n pairs with s = t all have the counts of
    (1, 1), and the n(n - 1) pairs with s != t those of (1, 2).  Both come
    first in the full list (``enumerate_marked_graphs``), and the first
    class there with T > 0 lies at (1, 1), or failing that at (1, 2).
    """
    return (((1, 1), n), ((1, 2), n * (n - 1)))[:min(n, 2)]


def _multichoose(kinds: int, r: int) -> int:
    """Multisets of size r over the given number of kinds."""
    return math.comb(kinds + r - 1, r) if kinds else int(r == 0)


def _bounded_multisets(marked: int, unmarked: int, r: int, beta: int) -> int:
    """Multisets of size r over marked and unmarked kinds, at most beta
    marked; 0 when r or beta is negative."""
    return sum(_multichoose(marked, j) * _multichoose(unmarked, r - j)
               for j in range(min(beta, r) + 1))


def search_space(n: int, k: int, bmax: int) -> int:
    """Root pairs times multisets of k edge types with at most bmax marked.

    Every pair of roots and multiset, each feasible, unbalanced or
    infeasible (``count_classes``).  The exhaustive commands refuse a search
    when it exceeds their guard.
    """
    pairs = n * n
    return pairs * _bounded_multisets(pairs, pairs, k, bmax)


def walk_order(record: ClassRecord) -> list[tuple[int, int, int, int]]:
    """A sort key that puts the records of one root pair in the order
    ``enumerate_marked_graphs`` lists them: at the first edge type where two
    records differ, the one with more edges of that type comes first, and a
    record that skips the type after every one that uses it."""
    return [(u, v, f, -m) for u, v, f, m in record[2]]


def count_classes(n: int, k: int, bmax: int, roots: tuple[int, int]) -> tuple[int, int, int]:
    """The (feasible, unbalanced, infeasible) multisets at one root pair,
    with none listed; ``enumerate_marked_graphs`` lists the feasible ones.

    A generating function in edges and marked edges, truncated at (k, bmax).
    Loops leave the balance alone, so each vertex's two loop types are
    counted in closed form at the end (``at_k``); the non-loop pairs are
    folded over balance vectors (``balanced``).  With B_W the balanced
    multisets on vertex set W with the roots, A_X the rootless ones on X and
    C_U those whose edges all lie in the weak component U of s,
    B_W = sum over {s, t} <= U <= W of C_U A_(W - U): the "connected from
    all" recursion (Harary and Palmer, Graphical Enumeration, 1973, ch. 1),
    solved for C_U from the smaller U up.  Feasible = sum of C_U at k.  All
    terms depend only on |U| and whether s = t, so isomorphic sets share a DP.
    """
    if n < 1 or k < 1 or bmax < 0:
        raise ValueError("need n, k >= 1 and bmax >= 0")
    s, t = roots
    if not (1 <= s <= n and 1 <= t <= n):
        raise ValueError(f"root pairs must lie in 1..{n}")
    apart = int(s != t)

    @functools.cache
    def balanced(w: int, apart: int) -> Counter:
        """Non-loop multisets on vertices 0..w-1 by (edges, marked) with
        in - out = [v = 1] - [v = 0] at each vertex when apart, else 0."""
        want = (-1, 1) + (0,) * (w - 2) if apart else (0,) * w
        states = Counter({((0,) * w, 0, 0): 1})     # (in - out, edges, marked)
        for x in range(w):
            for y in range(x + 1, w):
                for a, b in ((x, y), (y, x)):
                    grown = Counter()
                    for (d, e, beta), c in states.items():
                        for m in range(k - e + 1):
                            moved = list(d)
                            moved[a] -= m
                            moved[b] += m
                            # each edge left lowers the shortfall by at most 1
                            if e + m + sum(p - q for p, q in zip(want, moved) if p > q) <= k:
                                for j in range(min(m, bmax - beta) + 1):
                                    grown[tuple(moved), e + m, beta + j] += c
                    states = grown
            # every pair at x is placed, so its balance is final
            states = Counter({key: c for key, c in states.items() if key[0][x] == want[x]})
        out = Counter()
        for (_, e, beta), c in states.items():
            out[e, beta] += c
        return out

    def at_k(w: int, poly: Counter) -> int:
        # times the loops of w vertices, at k edges with at most bmax marked
        return sum(c * _bounded_multisets(w, w, k - e, bmax - beta)
                   for (e, beta), c in poly.items())

    rooted = 1 + apart                  # root vertices, in every U
    connected: list[Counter] = []       # C_U by |U| - rooted, loops aside
    feasible = 0
    for u in range(rooted, n + 1):
        poly = Counter(balanced(u, apart))
        for i, part in enumerate(connected):
            rest = balanced(u - rooted - i, 0)
            for (e1, b1), c1 in part.items():
                for (e2, b2), c2 in rest.items():
                    if e1 + e2 <= k and b1 + b2 <= bmax:
                        poly[e1 + e2, b1 + b2] -= math.comb(u - rooted, i) * c1 * c2
        connected.append(poly)
        feasible += math.comb(n - rooted, u - rooted) * at_k(u, poly)
    balance = at_k(n, balanced(n, apart))
    return feasible, _bounded_multisets(n * n, n * n, k, bmax) - balance, balance - feasible


def enumerate_marked_graphs(n: int, k: int, bmax: int) -> list[ClassRecord]:
    """One record (``class_record``) per feasible class of marked graphs.

    Two graphs are in one class when they share the roots and the multiset
    of (source, target, marked) triples; the signed trail sum's absolute
    value only depends on the class.  A class is feasible when it has an
    Eulerian trail from s to t (``validate``).

    One pass walks the multisets of k edge types with at most bmax marked,
    types in (source, target, marked) order and each type's multiplicity
    from high to low (the order of ``itertools.combinations_with_replacement``),
    the last type taking every edge left.  At each leaf the balance d(v) =
    in - out names the root pairs: every (s, s) when d = 0, the one (s, t)
    with d = e_t - e_s, and none otherwise; a pair is kept when one flood
    from s spans the picked types.  The records come grouped by root pair in
    lexicographic order and, within a pair, in ``walk_order``.
    """
    if n < 1 or k < 1 or bmax < 0:
        raise ValueError("need n, k >= 1 and bmax >= 0")
    types = [(u, v, f) for u in range(1, n + 1) for v in range(1, n + 1) for f in (0, 1)]
    last = len(types) - 1
    d = [0] * (n + 1)                   # in - out
    picked: list[tuple[int, int, int, int]] = []
    found: dict[tuple[int, int], list[ClassRecord]] = {}

    def leaf():
        ends = [v for v in range(1, n + 1) if d[v]]
        if not ends:
            pairs = [(s, s) for s in range(1, n + 1)]
        elif len(ends) == 2 and abs(d[ends[0]]) == 1:      # d sums to 0
            a, b = ends
            pairs = [(a, b) if d[a] < 0 else (b, a)]
        else:
            return
        near = [0] * (n + 1)
        for u, v, _, _ in picked:
            near[u] |= 1 << v
            near[v] |= 1 << u
        record = tuple(picked)
        for s, t in pairs:
            if _spans(near, s):
                found.setdefault((s, t), []).append((s, t, record))

    def walk(i: int, r: int, beta: int):
        # pick the next type j >= i and its multiplicity m, r edges left
        for j in range(i, last + 1):
            u, v, f = types[j]
            top = min(r, beta) if f else r
            for m in range(top, r - 1 if j == last else 0, -1):
                d[u] -= m
                d[v] += m
                picked.append((u, v, f, m))
                if m < r:
                    walk(j + 1, r - m, beta - m * f)
                else:
                    leaf()
                picked.pop()
                d[u] += m
                d[v] -= m

    walk(0, k, bmax)
    return [record for pair in sorted(found) for record in found[pair]]


def random_feasible_graph(rng: random.Random, n: int, k: int, bmax: int,
                          require_nonloop: bool = False) -> MarkedDigraph:
    """Rejection-sample a graph that admits an Eulerian trail between its roots."""
    if require_nonloop and (n < 2 or k < 1):
        raise ValueError("a non-loop edge needs n >= 2 and k >= 1")
    while True:
        edges = tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(k))
        s = rng.randint(1, n)
        t = rng.randint(1, n)
        size = rng.randint(0, min(bmax, k))
        marked = frozenset(rng.sample(range(1, k + 1), size))
        if require_nonloop and all(u == v for u, v in edges):
            continue
        g = MarkedDigraph(n, edges, s, t, marked)
        if validate(g):
            return g


# -- text format -----------------------------------------------------------
#
#   line 1:      n <n> s <s> t <t>
#   lines 2..:   <source> <target> <0|1>      (one per edge, in order)
#
# Blank lines are ignored and '#' starts a comment that runs to end of line.


def format_graph(g: MarkedDigraph) -> str:
    lines = [f"n {g.n} s {g.s} t {g.t}"]
    for i, (u, v) in enumerate(g.edges, start=1):
        lines.append(f"{u} {v} {1 if i in g.marked else 0}")
    return "\n".join(lines) + "\n"


def integer(token: str) -> int:
    """An optional sign then ASCII digits (int() also takes '1_0' and non-ASCII digits)."""
    if not (token.isascii() and token.lstrip("+-").isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def parse_graph(text: str) -> MarkedDigraph:
    n = s = t = None
    edges: list[tuple[int, int]] = []
    marked: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 6 or tokens[0] != "n" or tokens[2] != "s" or tokens[4] != "t":
                raise GraphFormatError(lineno, "expected header 'n <n> s <s> t <t>'")
            try:
                n, s, t = integer(tokens[1]), integer(tokens[3]), integer(tokens[5])
            except ValueError:
                raise GraphFormatError(lineno, "header fields must be integers") from None
            if n < 1:
                raise GraphFormatError(lineno, "vertex count must be at least 1")
            if not (1 <= s <= n and 1 <= t <= n):
                raise GraphFormatError(lineno, f"roots ({s},{t}) outside 1..{n}")
            continue
        if len(tokens) != 3:
            raise GraphFormatError(lineno, "expected edge line '<source> <target> <0|1>'")
        try:
            u, v = integer(tokens[0]), integer(tokens[1])
        except ValueError:
            raise GraphFormatError(lineno, "edge endpoints must be integers") from None
        if tokens[2] not in ("0", "1"):
            raise GraphFormatError(lineno, "marked flag must be 0 or 1")
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(lineno, f"edge {len(edges) + 1} endpoint outside 1..{n}")
        edges.append((u, v))
        if tokens[2] == "1":
            marked.add(len(edges))
    if n is None:
        raise GraphFormatError(1, "missing header line")
    return MarkedDigraph(n, tuple(edges), s, t, frozenset(marked))


def read_graph_file(path) -> MarkedDigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph_file(g: MarkedDigraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
