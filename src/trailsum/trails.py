"""Eulerian-trail enumeration and the signed trail sums over marked digraphs.

A trail of a k-edge graph is a plain tuple of edge indices: the permutation
sigma with sigma(p) equal to the index of the edge traversed at position p.
Each trail carries two signs: the parity of sigma itself, and the parity of
the order in which the marked edges appear along the trail (the
anticommutation bookkeeping of the marked edges).  The central quantities are

    S(G)  =  sum over all trails of  sgn(sigma) * marked-order sign,
    T(G)  =  |S(G)|,

computed exactly with arbitrary-precision integers.

Listing is one depth-first walk (signed_trails, described at
SignedTrailWalk) that yields each trail with its two signs, in
lexicographic order of the sigma sequence; it is the only listing entry.
trail_signs recomputes both signs of one trail from scratch and stays the
independent route.

The sums do not list trails.  The sign increment of appending edge e after
the set U of used edges depends on U alone, not on the order inside it, so
contributions factor through states (U, head); the walk and the DP read it
from one edge table (_out_edges).  signed_sum, filtered_signed_sum and
class_sums (every class of a search at once) are one forward DP (_forward)
with one layer per |U|, in the manner of Held and Karp ("A dynamic
programming approach to sequencing problems", 1962): each state carries its
signed weight alone, a state whose weight cancels to 0 is dropped at once
(the DP is linear, so it adds nothing to any completion), and a layer is
dropped once the next one is built.  A
constraint is a check on |U| (a position), a forced next edge in the state
(a consecutive run) or a check on U (the order of two runs).  The parallel
edges of each type (same endpoints, same mark flag) that no constraint
names are taken in index order only, and the result is scaled by the
factorials the swap laws give.  The listing walk and trail_signs stay
unreduced.  Both routes are exact and are cross-checked in the tests.

The trail count is not a DP quantity: _trail_count takes it from one
determinant by the BEST theorem, and signed_sum's report computes it only
when it is read.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property

from .digraph import (ClassRecord, MarkedDigraph, _spans, class_graph, extend, root_orbits,
                      surgery_in, surgery_out, validate)

DEFAULT_NODE_BUDGET = 10 ** 8
_TAIL_EDGES = 5                # see SignedTrailWalk


class BudgetExceededError(RuntimeError):
    """The states created by a DP (either side), or the extension steps of
    the trail walk (signed_trails), passed the max_nodes budget."""

    def __init__(self, nodes: int, limit: int):
        super().__init__(f"budget exceeded: {nodes} states or steps, limit {limit}")
        self.nodes = nodes
        self.limit = limit


@dataclass(frozen=True)
class SignedSumReport:
    """Result of signed_sum.

    ``nodes`` is the number of states (used-edge set, head) created by the
    ordered DP, which takes the parallel edges of each type in index order,
    the start state included.  A state whose weight cancels to 0 is
    dropped, and one created again counts again, so ``nodes`` bounds both
    the live states and the work; it is the quantity max_nodes bounds, and
    0 when no DP ran (no edges, no trail, or a repeated unmarked type).
    ``trail_count`` is computed from g (_trail_count) when first read.
    """
    S: int
    T: int
    nodes: int
    g: MarkedDigraph = field(compare=False, repr=False)

    @cached_property
    def trail_count(self) -> int:
        return _trail_count(self.g)


# -- permutation helpers -----------------------------------------------------

def _ints(seq, what: str) -> tuple[int, ...]:
    """seq as a tuple; TypeError unless every entry is an int (not a bool)."""
    out = tuple(seq)
    for x in out:
        if type(x) is not int:
            raise TypeError(f"{what} must be ints, not {x!r}")
    return out


def _permutation(perm) -> tuple[int, ...]:
    """perm as a tuple; TypeError unless its entries are ints (not bools),
    ValueError unless it is a permutation of 1..len(perm)."""
    seq = _ints(perm, "permutation entries")
    if sorted(seq) != list(range(1, len(seq) + 1)):
        raise ValueError(f"{seq} is not a permutation of 1..{len(seq)}")
    return seq


# Unchecked cores: they take a checked permutation tuple (and, for
# _pattern, a checked ascending subset); the public functions check once.

def _cycle_sign(seq: tuple[int, ...]) -> int:
    k = len(seq)
    seen = [False] * (k + 1)
    parity = k
    for start in range(1, k + 1):
        if not seen[start]:             # walk its cycle
            parity -= 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = seq[x - 1]
    return -1 if parity & 1 else 1


def _inverse(seq: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(seq)
    for pos, val in enumerate(seq, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def _pattern(seq: tuple[int, ...], Ms) -> tuple[int, ...]:
    vals = [seq[j - 1] for j in Ms]
    order = sorted(vals)
    return tuple(order.index(v) + 1 for v in vals)


def sgn_perm(perm) -> int:
    """Parity sign of a permutation of 1..k: (-1)^(k - number of cycles)."""
    return _cycle_sign(_permutation(perm))


def invert_permutation(perm) -> tuple[int, ...]:
    return _inverse(_permutation(perm))


def sigma_M(perm, M) -> tuple[int, ...]:
    """Relative-order pattern of the values of the permutation on a subset.

    For M = {j_1 < ... < j_m} the g-th output is the rank of perm(j_g) among
    perm(j_1), ..., perm(j_m); the result is a permutation of 1..m.  Raises
    ValueError unless perm is a permutation of 1..k.
    """
    seq = _permutation(perm)
    k = len(seq)
    Ms = sorted(set(_ints(M, "subset elements")))
    if Ms and not (1 <= Ms[0] and Ms[-1] <= k):
        raise ValueError(f"subset {Ms} is not contained in 1..{k}")
    return _pattern(seq, Ms)


def marked_order_sign(sigma, marked) -> int:
    """Sign of the order in which marked edges appear along the trail.

    sgn_perm(sigma_M(inverse of sigma, marked)): the sign of the pattern of
    the positions at which the marked edges occur.  This is the sign that
    sorts the anticommuting generators attached to the marked edges into
    ascending order, so it is the second factor of every trail's
    contribution.  Raises ValueError unless sigma is a permutation of 1..k
    and marked lies in 1..k.
    """
    return _cycle_sign(sigma_M(_inverse(_permutation(sigma)), marked))


def trail_signs(g: MarkedDigraph, trail) -> tuple[int, int]:
    """The pair (sgn(sigma), marked-order sign) of one trail of g.  Raises
    ValueError unless trail is a trail of g (is_trail), which makes it a
    permutation of 1..k, so both signs come from the checked tuple."""
    seq = _ints(trail, "edge indices")
    if not is_trail(g, seq):
        raise ValueError(f"{seq} is not a trail of the graph")
    return _cycle_sign(seq), _cycle_sign(_pattern(_inverse(seq), g.marked_indices()))


def is_trail(g: MarkedDigraph, sigma) -> bool:
    seq = _ints(sigma, "edge indices")
    if sorted(seq) != list(range(1, g.k + 1)):
        return False
    if g.k == 0:
        return g.s == g.t
    if g.edges[seq[0] - 1][0] != g.s or g.edges[seq[-1] - 1][1] != g.t:
        return False
    return all(g.edges[seq[p] - 1][1] == g.edges[seq[p + 1] - 1][0]
               for p in range(g.k - 1))


# -- enumeration --------------------------------------------------------------

def _out_edges(g: MarkedDigraph) -> dict[int, list[tuple[int, int, int, int, int]]]:
    """The edge table: each tail's edges, ascending, as (e, bit of e, head,
    sign mask, marked_above).  marked_above masks the marked edges above e
    when e is marked, and is 0 otherwise; the sign mask masks the edges above
    e less those, that is, above ^ marked_above.

    Appending e after the used set U flips the marked-order sign by the
    parity of U & marked_above and the product sgn(sigma) * marked-order
    sign by that of U & sign mask.  The DP reads the sign mask alone, and
    its rows hold the table's own mask objects, so each is stored once.
    """
    full = (1 << g.k) - 1
    mmask = 0
    for j in g.marked:
        mmask |= 1 << (j - 1)
    out: dict[int, list[tuple[int, int, int, int, int]]] = {}
    for e, (u, v) in enumerate(g.edges, start=1):
        sign_mask = full & ~((1 << e) - 1)
        marked_above = 0
        if e in g.marked:
            marked_above = sign_mask & mmask
            sign_mask ^= marked_above
        out.setdefault(u, []).append((e, 1 << (e - 1), v, sign_mask, marked_above))
    return out


class SignedTrailWalk:
    """Every Eulerian trail of g with its two signs, in lexicographic order.

    Iterating yields ``(trail, sgn(sigma), marked-order sign)``.  The walk
    extends the trail depth first from the source root on an explicit stack
    of frames (so trail length is not bounded by the recursion limit),
    taking candidate edges in ascending index order.  Each trail is built
    with ``+`` from ``pieces``, whose entry 0 is the empty trail and entry e
    the one-edge trail of edge e: by default () and (e,), so a trail is a
    tuple, while the strings "" and ",e" give its text with a leading comma.

    Signs are carried on the stack as two bits: one for the product
    sgn(sigma) * marked-order sign and one for the marked-order sign, which
    the edge table's two masks flip by one popcount each.  A 4-entry table
    maps the bits back to the pair yielded.

    An extension step is pruned when the edges left admit no trail from
    the new head to t, decided by the one flood (digraph._spans) that also
    decides trail existence for ``validate`` and the class list.  The edges
    left have out - in = [v = head] - [v = t], which sums to 0 over each
    weak component, so t lies in head's component and a trail exists
    exactly when a flood from head over their neighbour masks reaches every
    vertex on them.  The verdict depends only on the target state (used
    edges, head), so each target is flooded once.

    What a state contributes depends only on the state, so its first visit
    stores one list, and every visit walks that list in one frame.  An
    entry is (steps, edges, sign flips), where steps are those a
    step-by-step walk spends since the previous entry.  With more than
    _TAIL_EDGES = 5 edges left the entries are the state's moves in
    ascending edge order: a move's edges are one edge index, and it pushes
    its target's frame.  Otherwise they are the state's completions, each
    built from a move and the target's list, in the order the walk would
    reach them: a completion's edges are the trail of the edges left, and it
    is yielded.  An end entry, whose edges are None, closes every list and
    pops its frame.  The finished state (every edge used, head t) is stored
    before the walk starts, with one empty completion, so the last edge
    completes a trail as any move into a stored list does, and the empty
    graph yields its one trail, the empty one.

    With r edges left a state has at most r! completions, so a list holds
    at most 120 of at most 5 edges.  Equal moves and end entries are one
    object.  Each stored state is a step of a first visit or lies at most
    five edges below one, so max_nodes bounds the memo too.  On G_3 with
    mbar=3 the 294,351 steps that list 51,840 trails push 31,418 frames
    (18,072 of them walk tail lists), and store 1,460 completions in 541
    tail lists besides the finished state's (12 at most) next to 3,577
    moves of 1,293 deeper states.

    Single-pass iterator.  ``steps`` counts the extension steps attempted,
    added entry by entry as a step-by-step walk counts them, so it is exact
    after every yield, and more than max_nodes steps raise
    BudgetExceededError right after the trails whose last step fits.
    ``floods`` counts the flood memo misses as the floods run; a state's
    first visit floods all its candidates, and a tail state's its whole
    subtree, so ``floods`` is exact once the walk ends, and after a budget
    stop may count states the stopped walk never reached.  Infeasible
    graphs yield nothing.
    """

    def __init__(self, g: MarkedDigraph, max_nodes: int = DEFAULT_NODE_BUDGET,
                 pieces=None):
        if pieces is None:
            pieces = [()] + [(e,) for e in range(1, g.k + 1)]
        elif len(pieces) != g.k + 1:
            raise ValueError(f"pieces must hold {g.k + 1} entries "
                             f"(the empty trail, then one per edge), not {len(pieces)}")
        self.steps = 0
        self.floods = 0
        self._it = self._walk(g, max_nodes, pieces)

    def __iter__(self):
        return self

    def __next__(self) -> tuple[tuple[int, ...], int, int]:
        return next(self._it)

    def _walk(self, g: MarkedDigraph, max_nodes: int, pieces):
        if not validate(g):
            return
        t = g.t
        full = (1 << g.k) - 1
        candidates = _out_edges(g)
        moves_to = [None] + [(1 << i, v) for i, (_, v) in enumerate(g.edges)]  # (bit, head)
        # The vertices on edges numbered 0, 1, ..., and per edge i from x to y
        # (bit i, x, bit y, y, bit x) in those numbers: the neighbour masks of
        # the edges left, which the prune floods, are built from these.
        index: dict[int, int] = {}
        for u, v in g.edges:
            index.setdefault(u, len(index))
            index.setdefault(v, len(index))
        ends = [(1 << i, index[u], 1 << index[v], index[v], 1 << index[u])
                for i, (u, v) in enumerate(g.edges)]
        # Per head, per used edge mask: the flood's verdict on the edges left
        # until the state's first visit, and from then its stored list.
        self._memo = memo = {v: {} for v in index}
        memo[t] = {full: ((0, pieces[0], 0), (0, None, 0))}   # the finished state
        shared: dict[tuple, tuple] = {}     # one copy of each distinct move

        def visit(used, head):
            """First visit of (used, head): flood each candidate's target
            unless known, then store and return the state's list."""
            tail = g.k - used.bit_count() <= _TAIL_EDGES
            out = []
            dsteps = 0
            for e, bit, nxt, sign_mask, marked_above in candidates.get(head, ()):
                if used & bit:
                    continue
                dsteps += 1
                nused = used | bit
                known = memo[nxt]
                stored = known.get(nused)
                if stored is None:
                    self.floods += 1
                    near = [0] * len(index)
                    rem = full ^ nused
                    while rem:
                        edge_bit, x, y_bit, y, x_bit = ends[rem.bit_length() - 1]
                        rem ^= edge_bit
                        near[x] |= y_bit
                        near[y] |= x_bit
                    stored = known[nused] = _spans(near, index[nxt])
                if not stored:
                    continue
                flip = ((used & sign_mask).bit_count() & 1
                        | ((used & marked_above).bit_count() & 1) << 1)
                if not tail:
                    move = (dsteps, e, flip)
                    out.append(shared.setdefault(move, move))
                    dsteps = 0
                    continue
                if stored is True:
                    stored = visit(nused, nxt)
                for d, suffix, f in stored:
                    dsteps += d
                    if suffix is not None:
                        out.append((dsteps, pieces[e] + suffix, flip ^ f))
                        dsteps = 0
            end = (dsteps, None, 0)
            out.append(shared.setdefault(end, end))
            memo[head][used] = out = tuple(out)
            return out

        # (sgn, sgn_M) by the sign bits of (sgn * sgn_M, sgn_M)
        signs = ((1, 1), (-1, 1), (-1, -1), (1, -1))
        # Frames: (entries, used edges, sign bits, trail so far)
        frames = [(iter(memo[g.s].get(0) or visit(0, g.s)), 0, 0, pieces[0])]
        steps = 0
        try:
            while frames:
                it, used, sign, trail = frames[-1]
                for dsteps, e, flip in it:
                    steps += dsteps
                    if steps > max_nodes:
                        steps = max_nodes + 1
                        raise BudgetExceededError(steps, max_nodes)
                    if e is None:               # the end entry
                        frames.pop()
                        break
                    if type(e) is int:          # a move: push its target's list
                        bit, nxt = moves_to[e]
                        nused = used | bit
                        stored = memo[nxt][nused]
                        if stored is True:
                            stored = visit(nused, nxt)
                        frames.append((iter(stored), nused, sign ^ flip, trail + pieces[e]))
                        break
                    self.steps = steps
                    sg, sm = signs[sign ^ flip]
                    yield trail + e, sg, sm
        finally:
            self.steps = steps


def signed_trails(g: MarkedDigraph, max_nodes: int = DEFAULT_NODE_BUDGET,
                  pieces=None) -> SignedTrailWalk:
    """Walk every trail of g, yielding (trail, sgn(sigma), marked-order sign).

    Lexicographic order; see SignedTrailWalk for the memoized prune, the
    incremental signs, the ``steps``/``floods`` counters and ``pieces``.
    The signs equal trail_signs(g, trail), which stays the independent route.
    """
    return SignedTrailWalk(g, max_nodes, pieces)


# -- the layered subset DP ------------------------------------------------------

def _layered_sum(g: MarkedDigraph, constraints, max_nodes: int) -> tuple[int, int]:
    """(S, states created) over the trails of g that satisfy every
    constraint (see filtered_signed_sum); signed_sum passes none.

    The parallel edges of each type that no constraint names are taken in
    index order (_rows), so U is in effect a vector of per-type use counts.
    Swapping two of them maps satisfying trails to satisfying trails and
    flips sgn(sigma), and the marked-order sign too when they are marked: S
    is the finished state's weight (_forward) times m! per marked type of
    multiplicity m, and 0 when an unmarked type repeats.  The trivial graphs
    run no DP and fit any budget: an infeasible graph, or one where an
    unmarked type no constraint names repeats, gives (0, 0), and the
    feasible empty graph (s = t) (1, 0).
    """
    slot: dict[int, int] = {}     # position -> edge
    succ: dict[int, int] = {}
    need = [0] * (g.k + 1)        # edges that must be used before edge e
    named: set[int] = set()
    contradictory = False
    for c in constraints:
        check_constraint(g, c)
        if isinstance(c, AtPosition):
            named.add(c.edge)
            contradictory |= slot.setdefault(c.position, c.edge) != c.edge
            continue
        for run in [c.seq] if isinstance(c, Subtrail) else [c.first, c.second]:
            named.update(run)
            for a, b in zip(run, run[1:]):
                contradictory |= succ.setdefault(a, b) != b
        if isinstance(c, Precedes):
            need[c.second[0]] |= 1 << (c.first[-1] - 1)
    if contradictory or not validate(g):
        return 0, 0
    if g.k == 0:
        return 1, 0
    rows, scale = _rows(g, named, need, succ)
    if scale == 0:
        return 0, 0
    layer, nodes, _ = _forward(rows, g.s, g.k, 0, slot, max_nodes)
    return layer.get((g.t, 0, 0), {}).get((1 << g.k) - 1, 0) * scale, nodes


def _rows(g: MarkedDigraph, named, need, succ, count_marks: bool = False):
    """(rows, scale): _forward's rows per tail, and the m! factors of the
    repeated types, 0 when an unmarked type repeats.  A row is (e, bit of e
    | before, before, head of e, sign mask, next forced, marks), taken when
    U & (bit | before) == before; before is the previous edge of e's type
    unless a constraint names e, need[e] if one does.  marks is 1 for a
    marked edge when count_marks is set, and 0 otherwise.
    """
    rows = {}
    scale = 1
    for tail, out in _out_edges(g).items():
        last = {}                   # type -> (bit of its latest edge, rank of the next)
        row = rows[tail] = []
        for e, bit, dest, sign_mask, _ in out:
            before = need[e]
            if e not in named:      # after the previous edge of its type
                kind = (dest, e in g.marked)
                before, rank = last.get(kind, (0, 1))
                last[kind] = (bit, rank + 1)
                if rank > 1:
                    scale *= rank if kind[1] else 0     # an unmarked repeat cancels
            row.append((e, bit | before if before else bit, before, dest, sign_mask,
                        succ.get(e, 0), int(count_marks and e in g.marked)))
    return rows, scale


def _forward(rows, s: int, layers: int, max_marks: int, slot, max_nodes: int):
    """The one forward DP from (s, no edge), for the given number of
    layers: (last layer, states created, most states in one layer).

    A layer maps (head, forced, marks) to {used edge mask U: signed weight}:
    forced is the edge that must come next (0: none), marks sums the rows'
    marks up to max_marks, and slot admits only its edge at a position.  A
    state whose weight cancels to 0 is deleted at once (every completion
    adds weight times a sign).  Every insertion counts as a state created,
    again after a deletion, and more than max_nodes raise
    BudgetExceededError.
    """
    nodes = 1
    if nodes > max_nodes:
        raise BudgetExceededError(nodes, max_nodes)
    layer = {(s, 0, 0): {0: 1}}
    largest = 1
    for pos in range(1, layers + 1):
        nxt: dict[tuple[int, int, int], dict[int, int]] = {}
        for (head, forced, marks), states in layer.items():
            if not states:              # every state cancelled
                continue
            for e, mask, before, dest, sign_mask, nforced, mark in rows.get(head, ()):
                if forced and forced != e or slot.get(pos, e) != e or marks + mark > max_marks:
                    continue
                target = nxt.setdefault((dest, nforced, marks + mark), {})
                for used, w in states.items():
                    if used & mask != before:
                        continue
                    if (used & sign_mask).bit_count() & 1:
                        w = -w
                    nused = used | mask
                    cur = target.get(nused)
                    if cur is None:
                        nodes += 1
                        if nodes > max_nodes:
                            raise BudgetExceededError(nodes, max_nodes)
                        target[nused] = w
                    elif cur + w:
                        target[nused] = cur + w
                    else:                   # cancelled: drop it
                        del target[nused]
        layer = nxt
        largest = max(largest, sum(map(len, layer.values())))
    return layer, nodes, largest


def signed_sum(g: MarkedDigraph, max_nodes: int = DEFAULT_NODE_BUDGET) -> SignedSumReport:
    """Exact signed trail sum S, its absolute value T, and the trail count.

    The unconstrained run of _layered_sum: a forward DP over states (U,
    head), one layer per |U|, where U is the set of used edges, quotiented
    by the parallel edges of each type.  Each state holds its signed
    weight, and a state whose weight cancels to 0 is dropped.  The result
    is identical to folding the signs of signed_trails, which stays
    unreduced; a repeated unmarked type gives S = 0 with no DP.  The
    report's trail_count comes from _trail_count when first read, so a
    caller that reads only S and T never counts.
    """
    S, nodes = _layered_sum(g, (), max_nodes)
    return SignedSumReport(S, abs(S), nodes, g)


# -- every class at once ---------------------------------------------------------

@dataclass(frozen=True)
class ClassSums:
    """Result of class_sums: per head t of ``root_orbits`` (1, and 2 when
    n >= 2), {class record at (1, t): S} over the classes with S != 0; the
    states created, which max_nodes bounds, and the most states one layer
    held (both 0 when no DP ran)."""
    records: dict[int, dict[ClassRecord, int]]
    nodes: int
    largest_layer: int


def class_sums(n: int, k: int, bmax: int,
               max_nodes: int = DEFAULT_NODE_BUDGET) -> ClassSums:
    """S of every repeat-free class (no unmarked edge type twice; the
    others have S = 0) of n-vertex, k-edge graphs with at most bmax marks
    and source root 1, from one DP (_forward, k layers, bmax marks).

    It runs over the universal graph: the edge types in the order of the
    class records (u, v, marked), each unmarked one once and each marked one
    min(bmax, k) times.  An edge's sign flip counts the used edges above it
    (_out_edges), and parallel edges go in index order, so those are the
    used edges of higher types, here as in a class's representative
    (class_graph).  So a state (use counts, head) has one weight in every
    class DP that reaches it, and one at layer k with head t finishes one
    class at (1, t), whose S is the weight times m! per marked type of
    multiplicity m.  Only the heads the search reads, those of
    ``root_orbits``, are decoded into records.
    """
    copies = min(bmax, k)
    universe = [(u, v, f, copies if f else 1)
                for u in range(1, n + 1) for v in range(1, n + 1) for f in (0, 1)]
    g = class_graph(n, (1, 1, tuple(universe)))
    records: dict[int, dict[ClassRecord, int]] = {t: {} for (_, t), _ in root_orbits(n)}
    if g.k < k:                     # every class repeats an unmarked type
        return ClassSums(records, 0, 0)
    rows, _ = _rows(g, (), [0] * (g.k + 1), {}, count_marks=True)
    layer, nodes, largest = _forward(rows, 1, k, bmax, {}, max_nodes)
    kind_of = []    # per edge: its type's edge bits, and per count its record entry and m!
    for u, v, f, m in universe:
        entries = [((u, v, f, j), math.factorial(j) if f else 1) for j in range(m + 1)]
        kind_of.extend([(((1 << m) - 1) << len(kind_of), entries)] * m)
    for (t, _, _), states in layer.items():
        if t not in records:
            continue
        for used, w in states.items():
            picked = []
            while used:             # the lowest type left, then the types above it
                span, entries = kind_of[(used & -used).bit_length() - 1]
                entry, scale = entries[(used & span).bit_count()]
                picked.append(entry)
                w *= scale
                used &= ~span
            records[t][1, t, tuple(picked)] = w
    return ClassSums(records, nodes, largest)


# -- the trail count ------------------------------------------------------------

def _trail_count(g: MarkedDigraph) -> int:
    """The number of Eulerian trails of g from s to t (edges distinct), by
    the BEST theorem (van Aardenne-Ehrenfest and de Bruijn, 1951; Smith and
    Tutte, 1941).

    With the closing edge t -> s added when s != t, the trails are the
    Eulerian circuits through that edge, and when s = t each circuit gives
    outdeg(s) trails, one per first edge.  A balanced connected graph has
    tau * prod over its vertices of (outdeg - 1)! circuits, where tau counts
    the spanning trees oriented towards s: the determinant of the
    out-degree Laplacian (loops left out) without s's row and column.  A
    vertex other than s whose out-edges other than loops all go to one
    vertex u, m of them, takes one of those m in every such tree, so it is
    first merged into u and tau multiplied by m; that takes a path or a
    chain of 2-cycles down to s alone.  What is left is one Bareiss
    determinant.
    """
    if not validate(g):
        return 0
    if not g.edges:
        return 1                    # the empty trail
    edges = list(g.edges)
    if g.s != g.t:
        edges.append((g.t, g.s))
    outdeg = Counter(u for u, _ in edges)
    count = outdeg[g.s] if g.s == g.t else 1
    for d in outdeg.values():
        count *= math.factorial(d - 1)
    out: defaultdict[int, Counter] = defaultdict(Counter)   # non-loop edges: head -> count
    into: defaultdict[int, set[int]] = defaultdict(set)     # their tails, per head
    for u, v in edges:
        if u != v:
            out[u][v] += 1
            into[v].add(u)

    todo = list(out)
    while todo:
        v = todo.pop()
        heads = out.get(v)
        if v == g.s or heads is None or len(heads) != 1:
            continue
        (u, m), = heads.items()
        count *= m                  # merge v into u: edges between them become loops
        del out[v]
        out[u].pop(v, None)
        into[u].discard(v)
        for p in into.pop(v):
            if p != u:
                out[p][u] += out[p].pop(v)
                into[u].add(p)
                todo.append(p)
        todo.append(u)

    rest = [v for v in out if v != g.s]
    pos = {v: i for i, v in enumerate(rest)}
    a = [[0] * len(rest) for _ in rest]
    for i, v in enumerate(rest):
        for u, m in out[v].items():
            a[i][i] += m
            if u != g.s:
                a[i][pos[u]] -= m
    return count * _determinant(a)


def _determinant(a: list[list[int]]) -> int:
    """Determinant of a reduced Laplacian a (which it overwrites), by
    Bareiss's fraction-free elimination.

    Each pivot is a leading principal minor, which counts the forests in
    which each of its vertices takes one out-edge and every tree leaves its
    vertex set; in a strongly connected graph every vertex reaches s, so
    there is one, and no pivot is 0.
    """
    n = len(a)
    prev = 1
    for k in range(n - 1):
        pivot = a[k][k]
        for i in range(k + 1, n):
            row, lead = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * a[k][j]) // prev
        prev = pivot
    return a[-1][-1] if n else 1


# -- constrained partial sums -------------------------------------------------

def _run_start(seq: tuple[int, ...], sub: tuple[int, ...]) -> int | None:
    """0-based start of sub as a consecutive run of seq, or None.

    Edges are used once per trail, so a given index sequence occurs at most
    once.
    """
    try:
        pos = seq.index(sub[0])
    except ValueError:
        return None
    if seq[pos:pos + len(sub)] == sub:
        return pos
    return None


def _check_seq(seq) -> tuple[int, ...]:
    out = _ints(seq, "edge indices")
    if not out:
        raise ValueError("edge sequence must be nonempty")
    if min(out) < 1:
        raise ValueError("edge indices must be at least 1")
    if len(set(out)) != len(out):
        raise ValueError("edge sequence must not repeat an edge")
    return out


@dataclass(frozen=True)
class Subtrail:
    """The given edges must be traversed consecutively, in the given order."""
    seq: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "seq", _check_seq(self.seq))

    def satisfied(self, sigma: tuple[int, ...]) -> bool:
        return _run_start(sigma, self.seq) is not None


@dataclass(frozen=True)
class Precedes:
    """Both runs occur and the first ends before the second starts."""
    first: tuple[int, ...]
    second: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "first", _check_seq(self.first))
        object.__setattr__(self, "second", _check_seq(self.second))

    def satisfied(self, sigma: tuple[int, ...]) -> bool:
        i = _run_start(sigma, self.first)
        j = _run_start(sigma, self.second)
        return i is not None and j is not None and i + len(self.first) <= j


@dataclass(frozen=True)
class AtPosition:
    """Edge ``edge`` sits at trail position ``position`` (both 1-based)."""
    edge: int
    position: int

    def __post_init__(self):
        for x in (self.edge, self.position):
            if type(x) is not int:
                raise TypeError(f"edge index and position must be ints, not {x!r}")
        if self.edge < 1 or self.position < 1:
            raise ValueError("edge index and position must be at least 1")

    def satisfied(self, sigma: tuple[int, ...]) -> bool:
        return self.position <= len(sigma) and sigma[self.position - 1] == self.edge


TrailConstraint = Subtrail | Precedes | AtPosition


def check_constraint(g: MarkedDigraph, c) -> None:
    """Raise ValueError unless every edge and position that c names is at
    most g.k, and TypeError unless c is a TrailConstraint."""
    if isinstance(c, AtPosition):
        named = (c.edge, c.position)
    elif isinstance(c, Subtrail):
        named = c.seq
    elif isinstance(c, Precedes):
        named = c.first + c.second
    else:
        raise TypeError(f"unsupported constraint {c!r}")
    if max(named) > g.k:
        raise ValueError(f"{c} outside a {g.k}-edge graph")


def filtered_signed_sum(g: MarkedDigraph, constraints,
                        max_nodes: int = DEFAULT_NODE_BUDGET) -> int:
    """Signed sum restricted to trails satisfying every constraint.

    The constrained run of signed_sum's DP (see _layered_sum), without
    listing trails: AtPosition admits only its edge at its position, the
    runs of Subtrail and Precedes force the next edge, and Precedes also
    lets second[0] be placed only once first[-1] is used.  Filtered sums are
    quotiented by the parallel edges no constraint names.  Contradictory
    constraints give 0, since no edge can be placed twice.
    """
    return _layered_sum(g, constraints, max_nodes)[0]


# -- parallel-subtrail swap ----------------------------------------------------

def swap_parallel_subtrails(g: MarkedDigraph, trail, q1, q2):
    """Swap two parallel subtrail occurrences; predict both sign changes.

    q1 and q2 must occur as disjoint consecutive runs with equal start and
    end vertices.  With lengths L1, L2, gap h (edges strictly between the two
    runs) and marked counts L1', L2', h', the swap multiplies the trail sign
    by (-1)**(L1*(h+L2) + h*L2) and the marked-order sign by
    (-1)**(L1'*(h'+L2') + h'*L2'); both predictions are returned alongside
    the swapped trail.
    """
    seq = tuple(trail)
    q1 = _check_seq(q1)
    q2 = _check_seq(q2)
    i = _run_start(seq, q1)
    j = _run_start(seq, q2)
    if i is None or j is None:
        raise ValueError("both sequences must occur as consecutive runs of the trail")
    if i > j:
        i, j, q1, q2 = j, i, q2, q1
    if i + len(q1) > j:
        raise ValueError("subtrail occurrences overlap")

    first_src = g.edges[q1[0] - 1][0]
    second_src = g.edges[q2[0] - 1][0]
    first_dst = g.edges[q1[-1] - 1][1]
    second_dst = g.edges[q2[-1] - 1][1]
    if (first_src, first_dst) != (second_src, second_dst):
        raise ValueError("subtrails are not parallel")

    gap = seq[i + len(q1):j]
    L1, L2, h = len(q1), len(q2), len(gap)
    L1m = sum(1 for e in q1 if e in g.marked)
    L2m = sum(1 for e in q2 if e in g.marked)
    hm = sum(1 for e in gap if e in g.marked)
    pred_sign = -1 if (L1 * (h + L2) + h * L2) & 1 else 1
    pred_sign_m = -1 if (L1m * (hm + L2m) + hm * L2m) & 1 else 1

    swapped = seq[:i] + q2 + gap + q1 + seq[j + len(q2):]
    return swapped, pred_sign, pred_sign_m


# -- enumeration changes --------------------------------------------------------

def relabel(g: MarkedDigraph, pi) -> tuple[MarkedDigraph, int]:
    """Re-enumerate the edges as a_pi(1), ..., a_pi(k); marking follows edges.

    Returns the relabelled graph and the exact factor relating the two
    signed sums: S(relabelled) = sign_relation * S(original).  The factor is
    sgn(pi) times pi's marked-order sign, marked_order_sign(pi, marked) with
    pi read as a sequence; the second factor is +1 whenever pi keeps the
    marked indices in their original relative order (in particular whenever
    |marked| <= 1), in which case the relation is plain sgn(pi).
    """
    pi = _permutation(pi)
    k = g.k
    if len(pi) != k:
        raise ValueError(f"{pi} is not a permutation of 1..{k}")
    new_edges = tuple(g.edges[pi[p] - 1] for p in range(k))
    new_marked = frozenset(p + 1 for p in range(k) if pi[p] in g.marked)
    sign_relation = sgn_perm(pi) * marked_order_sign(pi, g.marked)
    return MarkedDigraph(g.n, new_edges, g.s, g.t, new_marked), sign_relation


def swan_identity(g: MarkedDigraph, a: int,
                  max_nodes: int = DEFAULT_NODE_BUDGET) -> tuple[int, int]:
    """Both sides of the loop-resolution identity for a non-loop edge a.

    The left side is S(g).  The right side resolves edge a against the
    root-absorbing extension of g: over all extended edges c ending at the
    tail of a, the sum of S after replacing a by a loop at its head and
    redirecting c there, minus the same over all extended edges d starting
    at the head of a.  Equality is exact.
    """
    if not 1 <= a <= g.k:
        raise ValueError("edge index out of range")
    am, ap = g.edges[a - 1]
    if am == ap:
        raise ValueError(f"edge {a} is a loop")
    lhs = signed_sum(g, max_nodes=max_nodes).S
    ge = extend(g)
    ae = a + 1
    rhs = 0
    for c in range(1, ge.k + 1):
        if c != ae and ge.edges[c - 1][1] == am:
            rhs += signed_sum(surgery_in(ge, ae, c), max_nodes=max_nodes).S
    for d in range(1, ge.k + 1):
        if d != ae and ge.edges[d - 1][0] == ap:
            rhs -= signed_sum(surgery_out(ge, ae, d), max_nodes=max_nodes).S
    return lhs, rhs
