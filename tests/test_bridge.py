import itertools
import math
import random

import pytest

from oracles import matrix_to_oracle, o_standard_polynomial, repeats_unmarked_type
from trailsum import bridge
from trailsum.bridge import (ClassSearch, IdentityVerdict, SimplifiedSet,
                             cross_check, graph_to_simplified, identity_verdict,
                             search_classes, simplified_to_graph)
from trailsum.digraph import (MAX_ORBIT_EDGES, MarkedDigraph, class_record,
                              enumerate_marked_graphs, make_gn, orbit_key,
                              random_feasible_graph, record_orbit_key,
                              search_space)
from trailsum.grassmann import (GrassmannElement, simplify_basis_tuple,
                                standard_polynomial, substitute_generators)
from trailsum.trails import BudgetExceededError, signed_sum, signed_trails


def graph(n, edges, s, t, marked=()):
    return MarkedDigraph(n, tuple(edges), s, t, frozenset(marked))


class TestConversions:
    def test_gn2_simplified_form(self):
        x = graph_to_simplified(make_gn(2, 1))
        assert x.elements == ((1, 2, 1), (2, 1, 2), (1, 1, 0), (1, 2, 0), (2, 2, 0))
        assert (x.s, x.t) == (1, 2)
        assert x.ell == 2 and x.m == 2

    def test_unmarked_graph_has_no_generators(self):
        x = graph_to_simplified(graph(2, [(1, 2), (2, 1)], 1, 1))
        assert x.ell == 0
        assert all(g == 0 for _, _, g in x.elements)

    def test_simplified_to_graph_examples(self):
        x = SimplifiedSet(1, 2, ((1, 1, 1), (1, 1, 2)), 1, 1)
        g = simplified_to_graph(x)
        assert g.edges == ((1, 1), (1, 1)) and g.marked == {1, 2}

        y = SimplifiedSet(2, 0, ((1, 2, 0),), 1, 2)
        g2 = simplified_to_graph(y)
        assert g2.edges == ((1, 2),) and not g2.marked

    def test_invalid_simplified_sets(self):
        with pytest.raises(ValueError):
            SimplifiedSet(1, 2, ((1, 1, 1), (1, 1, 1)), 1, 1)  # repeated generator
        with pytest.raises(ValueError):
            SimplifiedSet(1, 2, ((1, 1, 2),), 1, 1)  # generators must start at 1
        with pytest.raises(ValueError):
            SimplifiedSet(1, 0, ((1, 1, 1),), 1, 1)  # more generators than m
        with pytest.raises(ValueError):
            SimplifiedSet(1, 0, ((1, 2, 0),), 1, 1)  # entry outside dimension

    def test_round_trip_random(self):
        rng = random.Random(41)
        for _ in range(50):
            g = random_feasible_graph(rng, rng.randint(1, 3), rng.randint(1, 6), bmax=3)
            assert simplified_to_graph(graph_to_simplified(g)) == g

    def test_round_trip_enumerated(self):
        for g in enumerate_marked_graphs(2, 4, 2):
            assert simplified_to_graph(graph_to_simplified(g)) == g

    def test_generator_budget(self):
        g = graph(1, [(1, 1), (1, 1)], 1, 1, marked=[1, 2])
        assert graph_to_simplified(g, m=5).m == 5
        with pytest.raises(ValueError):
            graph_to_simplified(g, m=1)


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

    def test_gn2_magnitude(self):
        rep = cross_check(make_gn(2, 1))
        assert rep.agrees and rep.T == 4
        assert abs(rep.lhs_entry.coefficient([1, 2])) == 4

    def test_matches_naive_algebra_oracle(self):
        rng = random.Random(42)
        for _ in range(25):
            g = random_feasible_graph(rng, rng.randint(1, 3), rng.randint(1, 5), bmax=3)
            simp = graph_to_simplified(g)
            mats = simp.to_matrices()
            naive = o_standard_polynomial([matrix_to_oracle(x) for x in mats], g.n)
            fast = standard_polynomial(mats)
            assert matrix_to_oracle(fast) == naive
            entry = naive[g.s - 1][g.t - 1]
            coeff = entry.get(tuple(range(1, simp.ell + 1)), 0)
            assert abs(coeff) == signed_sum(g).T

    def test_witness_graphs_match_naive_oracle(self):
        for mbar, expected in ((1, 4), (2, 36)):
            g = make_gn(2, mbar)
            mats = graph_to_simplified(g).to_matrices()
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
            simplified_set = SimplifiedSet(
                n, len(out.generator_map),
                tuple(_element_shape(x) for x in out.elements), 1, 1)
            g = simplified_to_graph(simplified_set)
            assert cross_check(g).agrees
            inner = standard_polynomial(out.elements)
            for s in range(1, n + 1):
                for t in range(1, n + 1):
                    lifted = substitute_generators(inner.entry(s, t),
                                                   out.generator_map, m)
                    assert direct.entry(s, t) == out.monomial * lifted * out.sign


def _element_shape(mat):
    for i, row in enumerate(mat.rows, start=1):
        for j, e in enumerate(row, start=1):
            if not e.is_zero():
                (mask, _), = e.terms.items()
                gen = mask.bit_length() if mask else 0
                return (i, j, gen)
    raise AssertionError("zero basis matrix")


class TestIdentityVerdict:
    def test_degree_five_fails_on_two_generators(self):
        verdict = identity_verdict(2, 2, 5)
        assert not verdict.holds
        assert verdict.witness is not None
        assert signed_sum(verdict.witness).T > 0
        assert verdict.witness.k == 5 and len(verdict.witness.marked) <= 2

    def test_degree_six_holds_on_three_generators(self):
        verdict = identity_verdict(2, 3, 6)
        assert verdict.holds and verdict.witness is None
        assert verdict.checked > 0

    def test_amitsur_levitzki_degree(self):
        assert identity_verdict(2, 0, 4).holds

    def test_even_verdict_extends_to_next_degree(self):
        # vanishing at an even degree propagates one degree up
        assert identity_verdict(2, 3, 6).holds
        assert identity_verdict(2, 3, 7).holds

    def test_exhaustive_guard(self):
        with pytest.raises(ValueError):
            identity_verdict(4, 3, 12)

    def test_guard_counts_the_mark_bound(self):
        space = search_space(2, 5, 2)
        assert not identity_verdict(2, 2, 5, max_classes=space).holds
        with pytest.raises(ValueError):
            identity_verdict(2, 2, 5, max_classes=space - 1)

    @pytest.mark.parametrize("n, m, k", [(2, 2, 5), (3, 2, 5), (2, 3, 6)])
    def test_exhaustive_matches_one_sum_per_class(self, n, m, k):
        checked, witness = 0, None
        for g in enumerate_marked_graphs(n, k, m):
            checked += 1
            if signed_sum(g).T != 0:
                witness = g
                break
        verdict = identity_verdict(n, m, k)
        assert verdict == IdentityVerdict(witness is None, witness, checked)


class TestSearchClasses:
    @pytest.mark.parametrize("n, k, bmax, stop", [
        pytest.param(n, k, bmax, stop, id=f"{n}-{k}-{bmax}" + ("-stop" if stop else ""))
        for n, k, bmax, stop in [
            (2, 6, 3, False), (2, 7, 3, False), (2, 4, 0, False),
            (3, 5, 2, False), (3, 5, 2, True),
        ]])
    def test_matches_full_stream_fold(self, n, k, bmax, stop):
        # T once per class over the full stream of all n^2 root pairs.
        stream = enumerate_marked_graphs(n, k, bmax)
        histogram, witness, witness_T, walked, alternating = {}, None, 0, [], 0
        for g in stream:
            value = signed_sum(g).T
            histogram[value] = histogram.get(value, 0) + 1
            if (g.s, g.t) in ((1, 1), (1, 2)):
                if repeats_unmarked_type(g):
                    alternating += 1
                else:
                    walked.append(g)
            if value and witness is None:
                witness, witness_T = g, value
                if stop:
                    break
        found = search_classes(n, k, bmax, stop_on_witness=stop)
        orbits = len({orbit_key(g) for g in walked})
        assert found == ClassSearch(
            tuple(sorted(histogram.items())), witness, witness_T, stream.yielded,
            stream.skipped_unbalanced, stream.skipped_infeasible,
            orbits, len(walked) - orbits, alternating, len(walked) + alternating)
        assert found.orbits + found.reused + found.alternating == found.walked

    @pytest.mark.parametrize("n, k, bmax", [(2, 6, 3), (3, 5, 2), (2, 7, 3)])
    def test_records_decide_as_their_graphs(self, n, k, bmax):
        # search_classes reads the walk's count records; the graph view of
        # the same walk (checked against a brute-force stream in
        # test_digraph) must give the same class, key and law on each.
        graphs = enumerate_marked_graphs(n, k, bmax)
        walk = enumerate_marked_graphs(n, k, bmax)
        for g, record in itertools.zip_longest(graphs, walk.records):
            assert class_record(g) == record
            assert record_orbit_key(record) == orbit_key(g)
            assert bridge._repeats_unmarked_type(record) == repeats_unmarked_type(g)
        assert walk.yielded == graphs.yielded > 0

    def test_builds_graphs_only_for_trail_dps_and_the_witness(self, monkeypatch):
        built = [0]
        post_init = MarkedDigraph.__post_init__

        def counted(g):
            built[0] += 1
            post_init(g)

        monkeypatch.setattr(MarkedDigraph, "__post_init__", counted)
        found = search_classes(3, 6, 2)
        assert (found.orbits, found.walked) == (389, 2684)
        assert 0 < built[0] <= found.orbits + 1

    def test_orbit_key_limit_holds_on_the_count_path(self):
        # At k = 256 the one class with no repeated unmarked type and no
        # single count above 255 reaches the orbit key first.
        with pytest.raises(ValueError, match=f"need k <= {MAX_ORBIT_EDGES}"):
            search_classes(1, 256, 256)

    @pytest.mark.parametrize("n, k, bmax, repeated", [
        (2, 6, 3, 580), (2, 7, 3, 974), (3, 5, 2, 2127)])
    def test_repeated_unmarked_type_has_no_signed_trail_sum(self, n, k, bmax, repeated):
        # The alternating law that search_classes assumes, checked on the
        # unreduced trail walk (signed_sum applies the same law, so it cannot
        # stand behind it): every class that repeats an unmarked edge type
        # has S = 0.
        seen = 0
        for g in enumerate_marked_graphs(n, k, bmax):
            if repeats_unmarked_type(g):
                seen += 1
                assert sum(sgn * msign for _, sgn, msign in signed_trails(g)) == 0
        assert seen == repeated
