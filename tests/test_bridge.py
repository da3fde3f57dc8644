import dataclasses
import itertools
import math
import random

import pytest

from oracles import (brute_marked_graphs, matrix_to_oracle,
                     o_standard_polynomial, repeats_unmarked_type)
from trailsum import bridge, grassmann, trails
from trailsum.bridge import (ClassSearch, cross_check, graph_basis, graph_matrices,
                             search_classes)
from trailsum.digraph import (MarkedDigraph, class_graph, class_record, count_classes,
                              enumerate_marked_graphs, extend, make_gn, opposite,
                              random_feasible_graph, search_space)
from trailsum.grassmann import (GrassmannElement, GrassmannMatrix, simplify_basis_tuple,
                                standard_polynomial, standard_polynomial_basis_row,
                                substitute_generators)
from trailsum.trails import BudgetExceededError, class_sums, relabel, signed_sum, signed_trails


def graph(n, edges, s, t, marked=()):
    return MarkedDigraph(n, tuple(edges), s, t, frozenset(marked))


def class_graphs(n, records):
    """The representatives on n vertices of a class list's records, in order."""
    return (class_graph(n, record) for record in records)


def _element_shape(mat):
    for i, row in enumerate(mat.rows, start=1):
        for j, e in enumerate(row, start=1):
            if not e.is_zero():
                (mask, _), = e.terms.items()
                gen = mask.bit_length() if mask else 0
                return (i, j, gen)
    raise AssertionError("zero basis matrix")


def read_back(g):
    """The (u, v, generator) triple of each matrix of graph_matrices(g)."""
    mats = graph_matrices(g)
    assert all((x.n, x.m) == (g.n, len(g.marked)) for x in mats)
    return tuple(_element_shape(x) for x in mats)


def assert_reads_back(g):
    shapes = read_back(g)
    assert tuple((u, v) for u, v, _ in shapes) == g.edges
    ranks = {e: r for r, e in enumerate(sorted(g.marked), start=1)}
    assert tuple(gen for _, _, gen in shapes) == tuple(
        ranks.get(i, 0) for i in range(1, g.k + 1))


class TestConversions:
    def test_gn2_simplified_form(self):
        g = make_gn(2, 1)
        assert read_back(g) == ((1, 2, 1), (2, 1, 2), (1, 1, 0), (1, 2, 0), (2, 2, 0))
        assert graph_basis(g) == [(1, 2, 1), (2, 1, 2), (1, 1, 0), (1, 2, 0), (2, 2, 0)]
        assert graph_matrices(g)[0].m == 2

    def test_unmarked_graph_has_no_generators(self):
        g = graph(2, [(1, 2), (2, 1)], 1, 1)
        assert read_back(g) == ((1, 2, 0), (2, 1, 0))

    def test_round_trip_random(self):
        # graph -> matrices -> read back gives the edges and the marks
        rng = random.Random(41)
        for _ in range(50):
            assert_reads_back(random_feasible_graph(rng, rng.randint(1, 3),
                                                    rng.randint(1, 6), bmax=3))

    def test_round_trip_enumerated(self):
        for g in class_graphs(2, enumerate_marked_graphs(2, 4, 2)):
            assert_reads_back(g)

    @staticmethod
    def _graphs():
        gns = [make_gn(n, mbar) for n, mbar in ((2, 1), (2, 2), (3, 2), (3, 3), (4, 2))]
        rng = random.Random(43)
        return gns + [extend(g) for g in gns] + [opposite(g) for g in gns] + [
            random_feasible_graph(rng, rng.randint(1, 3), rng.randint(1, 8), bmax=3)
            for _ in range(50)]

    def test_matches_one_unit_matrix_per_edge(self):
        for g in self._graphs():
            m = len(g.marked)
            ranks = {e: r for r, e in enumerate(sorted(g.marked), start=1)}
            units = [GrassmannMatrix.unit(g.n, m, u, v, GrassmannElement.generator(m, ranks[i]))
                     if i in ranks else GrassmannMatrix.unit(g.n, m, u, v)
                     for i, (u, v) in enumerate(g.edges, start=1)]
            assert graph_matrices(g) == units

    def test_shared_entries_survive_the_algebra_dp(self):
        # each matrix shares one zero element across its entries, so a DP
        # that wrote into an argument's terms would show here
        for g in self._graphs():
            mats = graph_matrices(g)
            before = [[[dict(e.terms) for e in row] for row in x.rows] for x in mats]
            standard_polynomial(mats)
            assert [[[e.terms for e in row] for row in x.rows] for x in mats] == before
            assert mats == graph_matrices(g)


class TestCrossCheck:
    def test_two_marked_loops(self):
        g = graph(1, [(1, 1), (1, 1)], 1, 1, marked=[1, 2])
        rep = cross_check(g)
        assert rep.agrees and rep.T == 2 and rep.observed_sign == 1
        assert rep.lhs_entry == GrassmannElement.monomial(2, [1, 2], 2)

    def test_unmarked_balanced_graph_vanishes_both_ways(self):
        g = graph(2, [(1, 2), (2, 1), (1, 1), (2, 2)], 1, 1)
        rep = cross_check(g)
        assert rep.agrees and rep.T == 0 and rep.observed_sign == 0
        assert rep.lhs_entry.is_zero()

    @pytest.mark.parametrize("t, T, entry", [(1, 1, 1), (2, 0, 0)])
    def test_edgeless_graph(self, t, T, entry):
        # s_0 is the empty ordering, the identity: entry (s, t) is 1 when
        # s = t and 0 otherwise, as T is
        rep = cross_check(graph(2, [], 1, t))
        assert (rep.S, rep.T, rep.agrees, rep.lhs_entry) == (
            T, T, True, GrassmannElement.scalar(0, entry))
        assert rep.observed_sign == T

    def test_gn2_magnitude(self):
        rep = cross_check(make_gn(2, 1))
        assert rep.agrees and rep.T == 4
        assert abs(rep.lhs_entry.coefficient([1, 2])) == 4

    def test_matches_naive_algebra_oracle(self):
        rng = random.Random(42)
        for _ in range(25):
            g = random_feasible_graph(rng, rng.randint(1, 3), rng.randint(1, 5), bmax=3)
            mats = graph_matrices(g)
            naive = o_standard_polynomial([matrix_to_oracle(x) for x in mats], g.n)
            fast = standard_polynomial(mats)
            assert matrix_to_oracle(fast) == naive
            entry = naive[g.s - 1][g.t - 1]
            coeff = entry.get(tuple(range(1, len(g.marked) + 1)), 0)
            assert abs(coeff) == signed_sum(g).T

    def test_witness_graphs_match_naive_oracle(self):
        for mbar, expected in ((1, 4), (2, 36)):
            g = make_gn(2, mbar)
            mats = graph_matrices(g)
            got = standard_polynomial(mats)
            naive = o_standard_polynomial([matrix_to_oracle(x) for x in mats], g.n)
            assert matrix_to_oracle(got) == naive
            top = GrassmannElement.monomial(2 * mbar, range(1, 2 * mbar + 1), expected)
            assert got.entry(g.s, g.t) == top

    def test_witness_closed_forms_on_algebra_side(self):
        for n, mbar, expected in ((3, 1, 4), (3, 2, 64), (3, 3, 1440),
                                  (4, 1, 16), (4, 2, 320)):
            assert expected == (2 * mbar * math.factorial(mbar + n - 1)
                                * math.factorial(mbar) // 3)
            rep = cross_check(make_gn(n, mbar))
            assert rep.agrees and rep.T == expected
            assert abs(rep.lhs_entry.coefficient(range(1, 2 * mbar + 1))) == expected

    def test_random_agreement(self):
        rng = random.Random(43)
        for _ in range(60):
            g = random_feasible_graph(rng, rng.randint(1, 3), rng.randint(1, 7), bmax=3)
            assert cross_check(g).agrees

    def test_relabelled_witness_has_negative_sign(self):
        # an unmarked transposition of G_2 flips S to -4
        g, sign = relabel(make_gn(2, 1), (1, 2, 4, 3, 5))
        rep = cross_check(g)
        assert (sign, rep.S, rep.T, rep.agrees, rep.observed_sign) == (-1, -4, 4, True, -1)
        assert rep.lhs_entry == GrassmannElement.monomial(2, [1, 2], -4)

    @pytest.mark.parametrize("g", [
        pytest.param(make_gn(2, 1), id="entry-4v1v2-against-T5"),
        pytest.param(graph(2, [(1, 2), (2, 1), (1, 1), (2, 2)], 1, 1),
                     id="vanishing-entry-against-T1")])
    def test_disagreement_is_reported(self, monkeypatch, g):
        def off_by_one(h, max_nodes):
            rep = signed_sum(h, max_nodes=max_nodes)
            return dataclasses.replace(rep, T=rep.T + 1)
        entry = cross_check(g).lhs_entry
        monkeypatch.setattr(bridge, "signed_sum", off_by_one)
        rep = cross_check(g)
        assert (rep.lhs_entry, rep.agrees, rep.observed_sign) == (entry, False, 0)

    def test_budget_bounds_both_sides(self):
        # G_2 mbar=1: the trail DP creates 22 states and row s of the
        # algebra DP 21, so the trail side stops it; G_2 mbar=2: 38 trail
        # states and 77 algebra states, so the algebra side stops it
        g = make_gn(2, 1)
        assert signed_sum(g, max_nodes=22).nodes == 22
        with pytest.raises(BudgetExceededError):
            cross_check(g, max_nodes=21)
        assert cross_check(g, max_nodes=22).agrees
        g = make_gn(2, 2)
        assert signed_sum(g, max_nodes=38).nodes == 38
        with pytest.raises(BudgetExceededError):
            cross_check(g, max_nodes=76)
        assert cross_check(g, max_nodes=77).agrees


class TestAlgebraStates:
    """The states the algebra DP creates for row s of graph_matrices(g), and
    the basis route of cross_check creating the same ones."""

    @staticmethod
    def _states(g):
        index, k = grassmann._index(g.n, grassmann._arguments(graph_matrices(g))[2])
        return grassmann._alternating_row(index, k, g.s - 1, 0, 10 ** 9)[1]

    @staticmethod
    def _basis_route_row(g, states):
        """Row s from graph_basis(g), checked against row s of
        graph_matrices(g): it fits a budget of exactly the matrix route's
        states, and states - 1 stops it."""
        def basis_row(budget):
            return standard_polynomial_basis_row(g.n, len(g.marked), graph_basis(g), g.s, budget)
        row = basis_row(states)
        assert row == standard_polynomial(graph_matrices(g)).rows[g.s - 1]
        if states:
            with pytest.raises(BudgetExceededError,
                               match=f"^budget exceeded: {states} states or steps, "
                                     f"limit {states - 1}$"):
                basis_row(states - 1)
        return row

    def test_bridge_suite_counts(self):
        # the 764 graphs of verify --suite bridge --seed 7, drawn as
        # cli.suite_bridge draws them; the largest, 96 states, sets the
        # suite's budget boundary
        rng = random.Random(7)
        gs = [random_feasible_graph(rng, rng.randint(1, 3), rng.randint(2, 8), bmax=3)
              for _ in range(100)]
        gs += class_graphs(2, enumerate_marked_graphs(2, 6, bmax=3))
        counts = [self._states(g) for g in gs]
        assert (len(counts), sum(counts), max(counts)) == (764, 21634, 96)
        for g, states in zip(gs, counts):
            self._basis_route_row(g, states)

    @pytest.mark.parametrize("n, mbar, states", [(3, 3, 1881), (4, 2, 3006)])
    def test_gn_budget_boundary_is_exact(self, n, mbar, states):
        g = make_gn(n, mbar)
        assert self._states(g) == states
        row = self._basis_route_row(g, states)
        ell = len(g.marked)
        assert abs(row[g.t - 1].coefficient(range(1, ell + 1))) == signed_sum(g).T > 0


class TestSimplifyThenCrossCheck:
    def test_factorization_consistency(self):
        # a random basis tuple evaluates, through simplification plus the
        # graph route, to the same entry as direct evaluation
        rng = random.Random(44)
        checked = 0
        while checked < 30:
            n = rng.randint(1, 2)
            m = rng.randint(0, 4)
            k = rng.randint(1, 4)
            from oracles import random_basis_matrix
            xs = [random_basis_matrix(rng, n, m) for _ in range(k)]
            out = simplify_basis_tuple(xs)
            direct = standard_polynomial(xs)
            if out.zero:
                assert direct.is_zero()
                continue
            checked += 1
            shapes = [_element_shape(x) for x in out.elements]
            gens = sorted(gen for _, _, gen in shapes if gen)
            assert gens == list(range(1, len(gens) + 1))
            assert len(gens) <= len(out.generator_map)
            g = MarkedDigraph(n, tuple((a, b) for a, b, _ in shapes), 1, 1,
                              frozenset(i for i, (_, _, gen) in enumerate(shapes, start=1)
                                        if gen))
            assert cross_check(g).agrees
            inner = standard_polynomial(out.elements)
            for s in range(1, n + 1):
                for t in range(1, n + 1):
                    lifted = substitute_generators(inner.entry(s, t),
                                                   out.generator_map, m)
                    assert direct.entry(s, t) == out.monomial * lifted * out.sign


class TestIdentityVerdict:
    """s_k is an identity on M_n E^m when no class with at most m marks has
    T != 0: search_classes(n, k, m).witness is None."""

    def test_degree_five_fails_on_two_generators(self):
        found = search_classes(2, 5, 2)
        assert found.witness is not None
        assert signed_sum(found.witness).T > 0
        assert found.witness.k == 5 and len(found.witness.marked) <= 2

    def test_degree_six_holds_on_three_generators(self):
        found = search_classes(2, 6, 3)
        assert found.witness is None
        assert found.classes > 0

    def test_amitsur_levitzki_degree(self):
        assert search_classes(2, 4, 0).witness is None

    def test_even_verdict_extends_to_next_degree(self):
        # vanishing at an even degree propagates one degree up
        assert search_classes(2, 6, 3).witness is None
        assert search_classes(2, 7, 3).witness is None

    def test_exhaustive_guard(self):
        with pytest.raises(ValueError):
            search_classes(4, 12, 3)

    def test_guard_counts_the_mark_bound(self):
        space = search_space(2, 5, 2)
        found = search_classes(2, 5, 2, max_classes=space)
        assert found.witness is not None
        with pytest.raises(ValueError):
            search_classes(2, 5, 2, max_classes=space - 1)

    @pytest.mark.parametrize("n, m, k", [(2, 2, 5), (3, 2, 5), (2, 3, 6)])
    def test_exhaustive_matches_one_sum_per_class(self, n, m, k):
        # the witness is the first listed class with T != 0, and the
        # classes are those of the whole list
        checked, witness = 0, None
        for g in class_graphs(n, enumerate_marked_graphs(n, k, m)):
            checked += 1
            if witness is None and signed_sum(g).T != 0:
                witness = g
        found = search_classes(n, k, m)
        assert (found.witness, found.classes) == (witness, checked)


class TestSearchClasses:
    @pytest.mark.parametrize("n, k, bmax", [(0, 1, 0), (2000, 0, 1)])
    def test_rejects_empty_sizes_before_the_guard(self, n, k, bmax):
        # root_orbits(0) is empty, so n = 0 would give an empty record; the
        # 4 * 10^6 root pairs at n = 2000 would trip the guard instead
        with pytest.raises(ValueError, match="need n, k >= 1 and bmax >= 0"):
            search_classes(n, k, bmax)

    def test_budgets_are_keyword_only(self):
        # a fourth positional argument would otherwise be read as max_nodes
        with pytest.raises(TypeError):
            search_classes(2, 5, 2, True)

    @pytest.mark.parametrize("n, k, bmax", [(2, 6, 3), (2, 7, 3), (2, 4, 0), (3, 5, 2)])
    def test_matches_full_stream_fold(self, n, k, bmax):
        # T once per class over the full list of all n^2 root pairs.
        records = enumerate_marked_graphs(n, k, bmax)
        histogram, witness, witness_T = {}, None, 0
        for g in class_graphs(n, records):
            value = signed_sum(g).T
            histogram[value] = histogram.get(value, 0) + 1
            if value and witness is None:
                witness, witness_T = g, value
        # the DP counts its records at (1, 1) and (1, 2)
        paired = [record for record in records if record[:2] in ((1, 1), (1, 2))]
        nonzero = sum(1 for g in class_graphs(n, paired) if signed_sum(g).T)
        sums = class_sums(n, k, bmax)
        found = search_classes(n, k, bmax)
        # the balanced multisets of the search space that are not listed are
        # infeasible, counted at every root pair with no orbit scaling
        infeasible = sum(count_classes(n, k, bmax, roots)[2]
                         for roots in itertools.product(range(1, n + 1), repeat=2))
        unbalanced = search_space(n, k, bmax) - len(records) - infeasible
        assert found == ClassSearch(
            tuple(sorted(histogram.items())), witness, witness_T, len(records),
            unbalanced, infeasible, sums.nodes, sums.largest_layer, nonzero)

    @pytest.mark.parametrize("n, k, bmax", [(2, 6, 3), (3, 5, 2), (2, 7, 3)])
    def test_records_decide_as_their_graphs(self, n, k, bmax):
        # Each listed record must be the class of the brute-force stream's
        # graph in its place, and every record of the one trail DP must be
        # one whose graph repeats no unmarked edge type, at its root pair.
        listed = enumerate_marked_graphs(n, k, bmax)
        graphs = brute_marked_graphs(n, k, bmax)
        free = set()
        for record, g in itertools.zip_longest(listed, graphs):
            assert record == class_record(g)
            if not repeats_unmarked_type(g):
                free.add(record)
        decided = [record for found in class_sums(n, k, bmax).records.values()
                   for record in found]
        assert set(decided) <= free
        assert len(listed) == graphs.yielded > len(free) > len(decided)

    def test_builds_graphs_only_for_trail_dps_and_the_witness(self, monkeypatch):
        built = [0]
        post_init = MarkedDigraph.__post_init__

        def counted(g):
            built[0] += 1
            post_init(g)

        monkeypatch.setattr(MarkedDigraph, "__post_init__", counted)
        found = search_classes(3, 6, 2)
        assert (found.states, found.nonzero_records) == (2406, 388)
        assert built[0] == 2        # the DP's universal graph and the witness

    def test_search_and_cross_check_never_count_trails(self, monkeypatch):
        usual = search_classes(3, 6, 2), cross_check(make_gn(3, 2))

        def refuse(g):
            raise AssertionError("the trail count was read")

        monkeypatch.setattr(trails, "_trail_count", refuse)
        found, rep = search_classes(3, 6, 2), cross_check(make_gn(3, 2))
        assert (found, rep) == usual
        assert (found.states, found.nonzero_records, rep.S, rep.agrees) == (2406, 388, 64, True)

    def test_count_path_runs_past_255_edges(self):
        # At k = 256 the DP creates two states per layer, j marked loops with
        # or without the unmarked one; 256 marked loops are the one record
        # with T != 0, and 255 marked loops with the unmarked one cancel.
        found = search_classes(1, 256, 256)
        assert (found.classes, found.states, found.largest_layer,
                found.nonzero_records) == (257, 513, 2, 1)
        assert found.histogram == ((0, 256), (math.factorial(256), 1))

    @pytest.mark.parametrize("n, k, bmax, repeated", [
        (2, 6, 3, 580), (2, 7, 3, 974), (3, 5, 2, 2127)])
    def test_repeated_unmarked_type_has_no_signed_trail_sum(self, n, k, bmax, repeated):
        # The alternating law that search_classes assumes, checked on the
        # unreduced trail walk (signed_sum applies the same law, so it cannot
        # stand behind it): every class that repeats an unmarked edge type
        # has S = 0.
        seen = 0
        for g in class_graphs(n, enumerate_marked_graphs(n, k, bmax)):
            if repeats_unmarked_type(g):
                seen += 1
                assert sum(sgn * msign for _, sgn, msign in signed_trails(g)) == 0
        assert seen == repeated
