"""The correspondence between marked digraphs and tuples of basis elements.

``graph_basis`` is the correspondence: edge (u, v) becomes the basis element
E_(u,v), and a marked edge additionally carries one anticommuting generator,
numbered by the edge's ascending rank within the marked set; it is written
once, as one (u, v, mask) triple per edge, and ``graph_matrices`` builds the
matrix unit of each triple.  A simplified set, a tuple of basis elements
E_(a,b) or v_i E_(a,b) with distinct generators v_1..v_l, is exactly the
basis of a marked digraph.  The (s, t) entry of the alternating sum over the
tuple then equals, up to sign, T(G) times the ordered product of all
generators.  ``cross_check`` verifies this equality on concrete graphs by
computing both sides independently, the algebra side from the triples with
no matrix built.
``search_classes`` is the one exhaustive search over graph classes: the
``exhaustive`` command and the ``upper-n2`` and ``amitsur-levitzki`` suites
read its record, and the alternating sum of degree k vanishes on M_n E^m
exactly when its search at (n, k, m) finds no witness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .digraph import (MarkedDigraph, class_graph, count_classes, root_orbits, search_space,
                      walk_order)
from .grassmann import GrassmannElement, GrassmannMatrix, standard_polynomial_basis_row
from .trails import DEFAULT_NODE_BUDGET, class_sums, signed_sum

DEFAULT_MAX_CLASSES = 10 ** 6      # search_classes' guard on the search space


def graph_basis(g: MarkedDigraph) -> list[tuple[int, int, int]]:
    """The simplified set of g as basis triples (u, v, mask), in edge order.

    Edge i, (u, v), becomes the basis element E_(u,v) over len(g.marked)
    generators, times v_r (mask 1 << (r - 1)) when it is the r-th marked
    edge in ascending index order, and mask 0 otherwise.
    """
    rank = {e: r for r, e in enumerate(g.marked_indices())}
    return [(u, v, 1 << rank[i] if i in rank else 0) for i, (u, v) in enumerate(g.edges, start=1)]


def graph_matrices(g: MarkedDigraph) -> list[GrassmannMatrix]:
    """The simplified set of g as matrices: the matrix unit of each graph_basis triple."""
    n, m = g.n, len(g.marked)
    return [GrassmannMatrix.unit(n, m, u, v, GrassmannElement(m, {mask: 1}))
            for u, v, mask in graph_basis(g)]


@dataclass(frozen=True)
class CrossCheckReport:
    lhs_entry: GrassmannElement
    S: int
    T: int
    agrees: bool
    observed_sign: int


def cross_check(g: MarkedDigraph, max_nodes: int = DEFAULT_NODE_BUDGET) -> CrossCheckReport:
    """Compare the algebra side against the trail side on one graph.

    The algebra side is the (s, t) entry of the alternating sum over the
    basis elements of graph_basis(g), computed from row s alone; the
    trail side is T(g).  They agree when the entry equals sign * T *
    v_1...v_l for a sign in {+1, -1}, or when both vanish (observed_sign
    0).  max_nodes bounds the states of each side's DP.
    """
    row = standard_polynomial_basis_row(g.n, len(g.marked), graph_basis(g), g.s, max_nodes)
    entry = row[g.t - 1]
    rep = signed_sum(g, max_nodes=max_nodes)
    sign = 0
    if rep.T and not entry.is_zero():
        ell = len(g.marked)
        target = GrassmannElement.monomial(ell, range(1, ell + 1), rep.T)
        sign = 1 if entry == target else -1 if entry == -target else 0
    agrees = sign != 0 if rep.T else entry.is_zero()
    return CrossCheckReport(entry, rep.S, rep.T, agrees, sign)


@dataclass(frozen=True)
class ClassSearch:
    """The record of search_classes.

    ``histogram`` pairs each value of T, ascending, with its number of
    classes; ``witness`` is the first class of the full list with T > 0
    (None if there is none) and ``witness_T`` its T; it is the
    representative ``class_graph`` builds from its record.  ``classes``,
    ``skipped_unbalanced`` and ``skipped_infeasible`` count the full class
    list, in closed form (``count_classes``) with no class listed.
    ``states`` and ``largest_layer`` are the counters of the one trail DP
    (``class_sums``), and ``nonzero_records`` the classes with T != 0 it
    found at the root pairs (1, 1) and (1, 2), before any scaling.  The
    histogram counts every class, those with T = 0 too.
    """
    histogram: tuple[tuple[int, int], ...]
    witness: MarkedDigraph | None
    witness_T: int
    classes: int
    skipped_unbalanced: int
    skipped_infeasible: int
    states: int
    largest_layer: int
    nonzero_records: int


def search_classes(n: int, k: int, bmax: int, *, max_nodes: int = DEFAULT_NODE_BUDGET,
                   max_classes: int = DEFAULT_MAX_CLASSES) -> ClassSearch:
    """T over every class of n-vertex, k-edge graphs with at most bmax marks.

    Refuses, with ValueError, n < 1, k < 1, bmax < 0 and a search space
    (``search_space``) larger than max_classes.  A class whose unmarked
    edges repeat a type (u, v), a multiplicity of 2 or more in its record,
    has T = 0: s_k is alternating, so two equal arguments E_(u,v) make it
    vanish; on the trail side, swapping the two edges in a trail flips
    sgn(sigma) and keeps the marked order, so the trails cancel in pairs.
    The other classes, the simplified sets, are decided at once: one trail
    DP (``class_sums``, whose states count against max_nodes) gives S for
    every one of them with source root 1, and keeps those with S != 0.
    ``count_classes`` gives each root pair's classes and skipped counts,
    and the T = 0 row is its classes less the DP's records there.  Every
    root pair repeats (1, 1) or (1, 2) up to relabelling (``root_orbits``),
    so the counts of those two are scaled by their orbit sizes, and the
    record counts the full list.  The witness is the DP's record that
    ``enumerate_marked_graphs`` lists first (``walk_order``) at (1, 1), or
    failing that at (1, 2), the first two pairs of the full list; no class
    is listed.  A MarkedDigraph is built only for the DP and the witness.
    """
    if n < 1 or k < 1 or bmax < 0:
        raise ValueError("need n, k >= 1 and bmax >= 0")
    space = search_space(n, k, bmax)
    if space > max_classes:
        raise ValueError(
            f"search space of {space} classes exceeds the guard of {max_classes}")
    sums = class_sums(n, k, bmax, max_nodes)
    histogram: Counter = Counter()
    counters = (0, 0, 0)        # classes, skipped unbalanced, skipped infeasible
    first, witness_T = None, 0                  # the witness's record and T
    nonzero = 0                                 # the DP's records at (1, 1) and (1, 2)
    for roots, size in root_orbits(n):
        found = sums.records[roots[1]]
        if found and first is None:
            first = min(found, key=walk_order)
            witness_T = abs(found[first])
        tally = count_classes(n, k, bmax, roots)
        counts = Counter(abs(S) for S in found.values())
        counts[0] = tally[0] - len(found)
        histogram.update({value: size * count for value, count in counts.items() if count})
        counters = tuple(total + size * count for total, count in zip(counters, tally))
        nonzero += len(found)
    witness = None if first is None else class_graph(n, first)
    return ClassSearch(tuple(sorted(histogram.items())), witness, witness_T, *counters,
                       sums.nodes, sums.largest_layer, nonzero)
