"""Brute-force reference implementations used only as test oracles.

Everything here is deliberately written along a different route from the
package: monomials are ascending index tuples sorted by explicit bubble
sort, matrix products are chained naively, trails are found by filtering
all k! permutations, and signs come from direct inversion counts.
"""

import itertools


def inversion_sign(seq) -> int:
    inv = 0
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv & 1 else 1


def sort_with_sign(indices):
    """Bubble-sort a generator index list; (sorted tuple, sign), or None on a repeat."""
    arr = list(indices)
    sign = 1
    n = len(arr)
    for i in range(n):
        for j in range(n - 1 - i):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                sign = -sign
    for a, b in zip(arr, arr[1:]):
        if a == b:
            return None
    return tuple(arr), sign


# Oracle elements are dicts: ascending index tuple -> integer coefficient.

def oe_add(x, y):
    out = dict(x)
    for key, c in y.items():
        v = out.get(key, 0) + c
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    return out


def oe_mul(x, y):
    out = {}
    for ka, ca in x.items():
        for kb, cb in y.items():
            r = sort_with_sign(ka + kb)
            if r is None:
                continue
            key, sg = r
            v = out.get(key, 0) + sg * ca * cb
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def oe_scale(x, c):
    return {k: c * v for k, v in x.items()} if c else {}


def omat_mul(a, b, n):
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = {}
            for l in range(n):
                acc = oe_add(acc, oe_mul(a[i][l], b[l][j]))
            out[i][j] = acc
    return out


def omat_add(a, b, n):
    return [[oe_add(a[i][j], b[i][j]) for j in range(n)] for i in range(n)]


def o_standard_polynomial(mats, n):
    """Naive alternating sum: one full chain product per permutation."""
    k = len(mats)
    total = [[{} for _ in range(n)] for _ in range(n)]
    for per in itertools.permutations(range(k)):
        prod = mats[per[0]]
        for idx in per[1:]:
            prod = omat_mul(prod, mats[idx], n)
        sg = inversion_sign([p + 1 for p in per])
        total = omat_add(total, [[oe_scale(e, sg) for e in row] for row in prod], n)
    return total


def element_to_oracle(e):
    from trailsum.grassmann import indices_from_mask
    return {indices_from_mask(mask): c for mask, c in e.terms.items()}


def matrix_to_oracle(mat):
    return [[element_to_oracle(e) for e in row] for row in mat.rows]


# -- graphs -------------------------------------------------------------------

def brute_trails(g):
    """All trail permutations by filtering every permutation of the edges."""
    k = g.k
    out = []
    for per in itertools.permutations(range(1, k + 1)):
        seq = [g.edges[i - 1] for i in per]
        if k:
            if seq[0][0] != g.s or seq[-1][1] != g.t:
                continue
            if any(seq[p][1] != seq[p + 1][0] for p in range(k - 1)):
                continue
        elif g.s != g.t:
            continue
        out.append(per)
    return out


def brute_signed_sum(g):
    """(S, trail count) by direct enumeration and inversion counting."""
    total = 0
    count = 0
    marked = set(g.marked)
    for per in brute_trails(g):
        appearing = [e for e in per if e in marked]
        total += inversion_sign(per) * inversion_sign(appearing)
        count += 1
    return total, count


def walk_steps(g):
    """The steps of a plain depth-first trail walk, with no memo.

    From the head, each unused out-edge is a candidate, taken in ascending
    order and counted as one step; it is pruned when some edge left unused
    is not weakly reachable, over the unused edges, from the new head or
    from t.  Returns ([(trail, steps counted at its last move), ...], the
    final step count).  g must be feasible.
    """
    k = g.k
    found = []
    steps = 0

    def reachable(unused, head):
        seen = {head, g.t}
        grown = True
        while grown:
            grown = False
            for e in unused:
                u, v = g.edges[e - 1]
                if (u in seen) != (v in seen):
                    seen.update((u, v))
                    grown = True
        return all(g.edges[e - 1][0] in seen for e in unused)

    def extend(trail, head):
        nonlocal steps
        if len(trail) == k:
            if head == g.t:
                found.append((tuple(trail), steps))
            return
        for e in range(1, k + 1):
            if e in trail or g.edges[e - 1][0] != head:
                continue
            steps += 1
            nxt = g.edges[e - 1][1]
            if reachable([j for j in range(1, k + 1) if j not in trail and j != e], nxt):
                extend(trail + [e], nxt)

    extend([], g.s)
    return found, steps


def _run_offset(per, run):
    """Start of run as a consecutive block of per, found by trying every offset."""
    run = list(run)
    for i in range(len(per) - len(run) + 1):
        if list(per[i:i + len(run)]) == run:
            return i
    return None


def _meets(per, c):
    from trailsum.trails import AtPosition, Precedes, Subtrail
    if isinstance(c, AtPosition):
        return per[c.position - 1] == c.edge
    if isinstance(c, Subtrail):
        return _run_offset(per, c.seq) is not None
    if isinstance(c, Precedes):
        i = _run_offset(per, c.first)
        j = _run_offset(per, c.second)
        return i is not None and j is not None and i + len(c.first) - 1 < j
    raise TypeError(c)


def brute_filtered_sum(g, constraints):
    """Signed sum over the brute-force trails that meet every constraint."""
    marked = set(g.marked)
    total = 0
    for per in brute_trails(g):
        if all(_meets(per, c) for c in constraints):
            total += inversion_sign(per) * inversion_sign([e for e in per if e in marked])
    return total


def trail_flags(g):
    """(balanced, connected, feasible): the trail-existence rule, spelled out.

    ``balanced`` holds when indeg(v) + [v = s] = outdeg(v) + [v = t] at every
    vertex; ``connected`` is weak connectivity of the vertices on edges, found
    by a stack over neighbour sets; ``feasible`` is both with the roots on
    edges, or s = t when there are no edges, and is exactly the condition
    for an Eulerian trail from s to t to exist.
    """
    net = {g.s: 1}                  # indeg + [v = s] - outdeg - [v = t]
    net[g.t] = net.get(g.t, 0) - 1
    adj = {}
    for u, v in g.edges:
        net[u] = net.get(u, 0) - 1
        net[v] = net.get(v, 0) + 1
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    balanced = not any(net.values())
    seen = set()
    stack = list(adj)[:1]           # flood from one vertex on an edge
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            stack.extend(adj[x])
    connected = len(seen) == len(adj)
    if not g.edges:
        return balanced, connected, g.s == g.t
    return balanced, connected, balanced and connected and g.s in adj and g.t in adj


class _BruteMarkedGraphs:
    """Every multiset of (source, target, marked) triples, built and validated.

    The generator body is the package's original enumerator: for each root
    pair (all n^2 of them unless ``roots`` names some) it draws every
    multiset with at most bmax marked edges, and with a cap drops those
    holding an unmarked triple more than cap times; it builds the graph and
    lets ``trail_flags`` sort it into the counters.
    """

    def __init__(self, n, k, bmax, roots=None, cap=None):
        self.n = n
        self.k = k
        self.bmax = bmax
        self.cap = cap
        self.roots = (list(itertools.product(range(1, n + 1), repeat=2)) if roots is None
                      else list(roots))
        self.yielded = 0
        self.skipped_unbalanced = 0
        self.skipped_infeasible = 0
        self._it = self._generate()

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._it)

    def _generate(self):
        from trailsum.digraph import MarkedDigraph
        n, k = self.n, self.k
        types = [(u, v, f) for u in range(1, n + 1) for v in range(1, n + 1) for f in (0, 1)]
        for s, t in self.roots:
            for combo in itertools.combinations_with_replacement(types, k):
                if sum(f for _, _, f in combo) > self.bmax:
                    continue
                # combo is sorted, so a triple taken more than cap times
                # meets itself cap places on
                if self.cap is not None and any(
                        x == y and not x[2] for x, y in zip(combo, combo[self.cap:])):
                    continue
                edges = tuple((u, v) for u, v, _ in combo)
                marked = frozenset(i for i, (_, _, f) in enumerate(combo, start=1) if f)
                g = MarkedDigraph(n, edges, s, t, marked)
                balanced, _, feasible = trail_flags(g)
                if not balanced:
                    self.skipped_unbalanced += 1
                    continue
                if not feasible:
                    self.skipped_infeasible += 1
                    continue
                self.yielded += 1
                yield g


def brute_marked_graphs(n, k, bmax, roots=None, cap=None):
    """Reference class stream with the counters that count_classes gives in closed form."""
    return _BruteMarkedGraphs(n, k, bmax, roots, cap)


def repeats_unmarked_type(g):
    """Do two unmarked edges of g share their endpoints (u, v)?

    Every pair of unmarked edges is compared directly.
    """
    unmarked = [g.edges[i - 1] for i in range(1, len(g.edges) + 1) if i not in g.marked]
    for a in range(len(unmarked)):
        for b in range(a + 1, len(unmarked)):
            if unmarked[a] == unmarked[b]:
                return True
    return False


# -- random generators ----------------------------------------------------------

def random_element(rng, m, max_terms=8, coeff_bound=5):
    from trailsum.grassmann import GrassmannElement
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mask = rng.randrange(1 << m)
        c = rng.randint(-coeff_bound, coeff_bound)
        terms[mask] = terms.get(mask, 0) + c
    return GrassmannElement(m, terms)


def random_matrix(rng, n, m, max_terms=2, coeff_bound=3):
    from trailsum.grassmann import GrassmannMatrix
    return GrassmannMatrix(n, m, [
        [random_element(rng, m, max_terms, coeff_bound) for _ in range(n)]
        for _ in range(n)])


def random_basis_matrix(rng, n, m):
    from trailsum.grassmann import GrassmannElement, GrassmannMatrix
    mask = rng.randrange(1 << m)
    coeff = rng.choice((1, -1))
    return GrassmannMatrix.unit(n, m, rng.randint(1, n), rng.randint(1, n),
                                GrassmannElement(m, {mask: coeff}))
