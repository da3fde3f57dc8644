import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (element_to_oracle, matrix_to_oracle,
                     o_standard_polynomial, oe_mul, random_basis_matrix,
                     random_matrix)
from trailsum.grassmann import (ArityCapError, GrassmannElement, GrassmannMatrix,
                                ShapeError, ext_mul, mat_mul, simplify_basis_tuple,
                                standard_polynomial, substitute_generators)


def elem(m, *terms):
    """terms are (coeff, indices) pairs."""
    acc = GrassmannElement.zero(m)
    for coeff, indices in terms:
        acc = acc + GrassmannElement.monomial(m, indices, coeff)
    return acc


def elements(max_m=6, max_terms=8):
    @st.composite
    def build(draw):
        m = draw(st.integers(0, max_m))
        n_terms = draw(st.integers(0, max_terms))
        terms = {}
        for _ in range(n_terms):
            mask = draw(st.integers(0, (1 << m) - 1))
            coeff = draw(st.integers(-9, 9))
            terms[mask] = terms.get(mask, 0) + coeff
        return GrassmannElement(m, terms)
    return build()


def element_pairs(max_m=6, max_terms=8):
    @st.composite
    def build(draw):
        m = draw(st.integers(0, max_m))
        def one():
            terms = {}
            for _ in range(draw(st.integers(0, max_terms))):
                terms[draw(st.integers(0, (1 << m) - 1))] = draw(st.integers(-9, 9))
            return GrassmannElement(m, terms)
        return one(), one(), one()
    return build()


class TestExtMul:
    def test_generator_squares_to_zero(self):
        v1 = GrassmannElement.generator(3, 1)
        assert (v1 * v1).is_zero()

    def test_generators_anticommute(self):
        v1 = GrassmannElement.generator(3, 1)
        v2 = GrassmannElement.generator(3, 2)
        assert v2 * v1 == -(v1 * v2)
        assert v2 * v1 == elem(3, (-1, [1, 2]))

    def test_even_degree_is_central(self):
        v1v2 = GrassmannElement.monomial(3, [1, 2])
        v3 = GrassmannElement.generator(3, 3)
        assert v1v2 * v3 == v3 * v1v2 == GrassmannElement.monomial(3, [1, 2, 3])

    def test_distributes_over_basis(self):
        one = GrassmannElement.one(2)
        v1 = GrassmannElement.generator(2, 1)
        v2 = GrassmannElement.generator(2, 2)
        assert (one + v1) * (one + v2) == one + v1 + v2 + v1 * v2

    def test_mismatched_generator_counts(self):
        with pytest.raises(ShapeError):
            ext_mul(GrassmannElement.one(2), GrassmannElement.one(3))

    @given(element_pairs())
    def test_matches_oracle(self, xyz):
        x, y, _ = xyz
        got = element_to_oracle(x * y)
        assert got == oe_mul(element_to_oracle(x), element_to_oracle(y))

    @given(element_pairs())
    def test_associative(self, xyz):
        x, y, z = xyz
        assert (x * y) * z == x * (y * z)

    @given(element_pairs())
    def test_distributive(self, xyz):
        x, y, z = xyz
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z

    def test_graded_commutativity(self):
        rng = random.Random(4)
        for _ in range(200):
            m = rng.randint(0, 6)
            d = rng.randint(0, m)
            e = rng.randint(0, m)
            x = GrassmannElement.zero(m)
            y = GrassmannElement.zero(m)
            for _ in range(rng.randint(1, 4)):
                x = x + GrassmannElement(m, {_random_mask(rng, m, d): rng.randint(-4, 4)})
                y = y + GrassmannElement(m, {_random_mask(rng, m, e): rng.randint(-4, 4)})
            assert x.homogeneous_degree() in (d, None)
            sign = -1 if (d * e) & 1 else 1
            assert x * y == sign * (y * x)


def _random_mask(rng, m, degree):
    return sum(1 << (i - 1) for i in rng.sample(range(1, m + 1), degree))


class TestRendering:
    def test_zero(self):
        assert str(GrassmannElement.zero(3)) == "0"

    def test_signed_monomials(self):
        x = elem(3, (2, [1, 2]))
        assert str(x) == "+2*v1v2"
        assert str(-x) == "-2*v1v2"
        y = elem(3, (1, []), (1, [1]), (-1, [1, 3]))
        assert str(y) == "+1+v1-v1v3"

    def test_matrix_row_major(self):
        mat = GrassmannMatrix.identity(2, 1)
        assert str(mat) == "[+1, 0]\n[0, +1]"


class TestMatMul:
    def test_matrix_units_compose(self):
        e12 = GrassmannMatrix.unit(2, 0, 1, 2)
        e21 = GrassmannMatrix.unit(2, 0, 2, 1)
        e11 = GrassmannMatrix.unit(2, 0, 1, 1)
        assert e12 * e21 == e11
        assert (e12 * e11).is_zero()

    def test_single_entry_product(self):
        x = GrassmannMatrix.unit(2, 2, 1, 1, GrassmannElement.generator(2, 1))
        y = GrassmannMatrix.unit(2, 2, 1, 1, GrassmannElement.generator(2, 2))
        expected = GrassmannMatrix.unit(2, 2, 1, 1, GrassmannElement.monomial(2, [1, 2]))
        assert x * y == expected

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mat_mul(GrassmannMatrix.identity(2, 0), GrassmannMatrix.identity(3, 0))
        with pytest.raises(ShapeError):
            mat_mul(GrassmannMatrix.identity(2, 0), GrassmannMatrix.identity(2, 1))

    def test_matches_oracle(self):
        rng = random.Random(11)
        from oracles import omat_mul
        for _ in range(30):
            n = rng.randint(1, 3)
            m = rng.randint(0, 4)
            a = random_matrix(rng, n, m)
            b = random_matrix(rng, n, m)
            assert matrix_to_oracle(a * b) == omat_mul(
                matrix_to_oracle(a), matrix_to_oracle(b), n)

    def test_element_scaling_is_sided(self):
        v1 = GrassmannElement.generator(2, 1)
        v2 = GrassmannElement.generator(2, 2)
        mat = GrassmannMatrix.unit(2, 2, 1, 2, v2)
        assert (v1 * mat).entry(1, 2) == v1 * v2
        assert (mat * v1).entry(1, 2) == v2 * v1


class TestStandardPolynomial:
    def test_degree_two_alternates(self):
        rng = random.Random(5)
        for _ in range(20):
            x = random_matrix(rng, 2, 3)
            assert standard_polynomial([x, x]).is_zero()

    def test_two_marked_units(self):
        x = GrassmannMatrix.unit(1, 2, 1, 1, GrassmannElement.generator(2, 1))
        y = GrassmannMatrix.unit(1, 2, 1, 1, GrassmannElement.generator(2, 2))
        expected = GrassmannMatrix.unit(1, 2, 1, 1, GrassmannElement.monomial(2, [1, 2], 2))
        assert standard_polynomial([x, y]) == expected

    def test_prepending_identity_even_arity(self):
        rng = random.Random(6)
        for _ in range(10):
            n = rng.randint(1, 3)
            m = rng.randint(0, 4)
            xs = [random_matrix(rng, n, m, max_terms=1) for _ in range(2)]
            ident = GrassmannMatrix.identity(n, m)
            assert standard_polynomial([ident] + xs) == standard_polynomial(xs)

    def test_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(12):
            n = rng.randint(1, 2)
            m = rng.randint(0, 3)
            k = rng.randint(1, 4)
            xs = [random_matrix(rng, n, m, max_terms=2) for _ in range(k)]
            got = matrix_to_oracle(standard_polynomial(xs))
            assert got == o_standard_polynomial([matrix_to_oracle(x) for x in xs], n)

    def test_multilinear(self):
        rng = random.Random(8)
        for _ in range(10):
            n = rng.randint(1, 2)
            m = rng.randint(0, 3)
            k = rng.randint(2, 4)
            xs = [random_matrix(rng, n, m, max_terms=2) for _ in range(k)]
            y = random_matrix(rng, n, m, max_terms=2)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            slot = rng.randrange(k)
            mixed = list(xs)
            mixed[slot] = xs[slot] * a + y * b
            lhs = standard_polynomial(mixed)
            with_x = standard_polynomial(xs)
            with_y = standard_polynomial(xs[:slot] + [y] + xs[slot + 1:])
            assert lhs == with_x * a + with_y * b

    def test_vanishes_on_repeated_basis_argument(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 3)
            m = rng.randint(0, 4)
            k = rng.randint(2, 5)
            xs = [random_basis_matrix(rng, n, m) for _ in range(k - 1)]
            dup = rng.choice(xs)
            assert standard_polynomial(xs + [dup]).is_zero()

    def test_amitsur_levitzki_integer_matrices(self):
        rng = random.Random(10)
        for n in (2, 3):
            for _ in range(3):
                xs = [random_matrix(rng, n, 0, max_terms=1, coeff_bound=4)
                      for _ in range(2 * n)]
                assert standard_polynomial(xs).is_zero()

    def test_arity_cap(self):
        xs = [GrassmannMatrix.identity(1, 0)] * 4
        with pytest.raises(ArityCapError):
            standard_polynomial(xs, cap=3)
        assert standard_polynomial(xs, cap=3, allow_large=True).is_zero()

    def test_empty_and_shape_errors(self):
        with pytest.raises(ValueError):
            standard_polynomial([])
        with pytest.raises(TypeError):
            standard_polynomial([1, 2])
        with pytest.raises(ShapeError):
            standard_polynomial([GrassmannMatrix.identity(2, 0),
                                 GrassmannMatrix.identity(3, 0)])


class TestSimplifyBasisTuple:
    def test_even_prefix_factored(self):
        xs = [GrassmannMatrix.unit(2, 2, 1, 1, GrassmannElement.monomial(2, [1, 2])),
              GrassmannMatrix.unit(2, 2, 1, 2)]
        out = simplify_basis_tuple(xs)
        assert not out.zero
        assert out.sign == 1
        assert out.monomial == GrassmannElement.monomial(2, [1, 2])
        assert out.elements == (GrassmannMatrix.unit(2, 0, 1, 1),
                                GrassmannMatrix.unit(2, 0, 1, 2))

    def test_shared_generator_flags_zero(self):
        v1 = GrassmannElement.generator(2, 1)
        xs = [GrassmannMatrix.unit(2, 2, 1, 1, v1), GrassmannMatrix.unit(2, 2, 1, 2, v1)]
        out = simplify_basis_tuple(xs)
        assert out.zero
        assert standard_polynomial(xs).is_zero()

    def test_single_generator_relabels(self):
        xs = [GrassmannMatrix.unit(1, 3, 1, 1, GrassmannElement.generator(3, 3))]
        out = simplify_basis_tuple(xs)
        assert out.elements == (GrassmannMatrix.unit(1, 1, 1, 1,
                                                     GrassmannElement.generator(1, 1)),)
        assert out.generator_map == {1: 3}

    def test_rejects_non_basis_input(self):
        dense = GrassmannMatrix.identity(2, 1)
        with pytest.raises(ValueError):
            simplify_basis_tuple([dense])

    def test_evaluation_factors_through_simplification(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 2)
            m = rng.randint(0, 4)
            k = rng.randint(1, 4)
            xs = [random_basis_matrix(rng, n, m) for _ in range(k)]
            out = simplify_basis_tuple(xs)
            direct = standard_polynomial(xs)
            if out.zero:
                assert direct.is_zero()
                continue
            inner = standard_polynomial(out.elements)
            rebuilt_rows = []
            for row in inner.rows:
                rebuilt_rows.append([
                    out.monomial * substitute_generators(e, out.generator_map, m) * out.sign
                    for e in row])
            assert direct == GrassmannMatrix(n, m, rebuilt_rows)


@settings(max_examples=60)
@given(elements())
def test_addition_round_trip(x):
    assert (x - x).is_zero()
    assert x + GrassmannElement.zero(x.m) == x
    assert -(-x) == x
