import math
import random

import pytest

from oracles import matrix_to_oracle, o_standard_polynomial
from trailsum.bridge import (SimplifiedSet, cross_check, graph_to_simplified,
                             identity_verdict, simplified_to_graph)
from trailsum.digraph import (MarkedDigraph, enumerate_marked_graphs, make_gn,
                              random_feasible_graph)
from trailsum.grassmann import (GrassmannElement, simplify_basis_tuple,
                                standard_polynomial, substitute_generators)
from trailsum.trails import signed_sum


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
            rep = cross_check(make_gn(n, mbar), allow_large=True)
            assert rep.agrees and rep.T == expected
            assert abs(rep.lhs_entry.coefficient(range(1, 2 * mbar + 1))) == expected

    def test_random_agreement(self):
        rng = random.Random(43)
        for _ in range(60):
            g = random_feasible_graph(rng, rng.randint(1, 3), rng.randint(1, 7), bmax=3)
            assert cross_check(g).agrees

    def test_cap_propagates(self):
        from trailsum.grassmann import ArityCapError
        g = graph(1, [(1, 1)] * 4, 1, 1, marked=[1, 2])
        with pytest.raises(ArityCapError):
            cross_check(g, cap=3)
        assert cross_check(g, cap=3, allow_large=True).agrees


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
        verdict = identity_verdict(2, 2, 5, mode="exhaustive")
        assert not verdict.holds
        assert verdict.witness is not None
        assert signed_sum(verdict.witness).T > 0
        assert verdict.witness.k == 5 and len(verdict.witness.marked) <= 2

    def test_degree_six_holds_on_three_generators(self):
        verdict = identity_verdict(2, 3, 6, mode="exhaustive")
        assert verdict.holds and verdict.witness is None
        assert verdict.checked > 0

    def test_amitsur_levitzki_degree(self):
        assert identity_verdict(2, 0, 4, mode="exhaustive").holds

    def test_even_verdict_extends_to_next_degree(self):
        # vanishing at an even degree propagates one degree up
        assert identity_verdict(2, 3, 6, mode="exhaustive").holds
        assert identity_verdict(2, 3, 7, mode="exhaustive").holds

    def test_sampled_mode_deterministic(self):
        a = identity_verdict(2, 3, 6, mode="sampled", seed=5, samples=40)
        b = identity_verdict(2, 3, 6, mode="sampled", seed=5, samples=40)
        assert a.holds and b.holds and a.checked == b.checked == 40

    def test_sampled_finds_witness(self):
        verdict = identity_verdict(2, 2, 5, mode="sampled", seed=1, samples=200)
        assert not verdict.holds

    def test_exhaustive_guard(self):
        with pytest.raises(ValueError):
            identity_verdict(4, 3, 12, mode="exhaustive")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            identity_verdict(2, 2, 4, mode="guess")
