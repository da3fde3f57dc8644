import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (element_to_oracle, matrix_to_oracle,
                     o_standard_polynomial, oe_mul, random_basis_matrix,
                     random_element, random_matrix)
from trailsum import grassmann
from trailsum.grassmann import (GrassmannElement, GrassmannMatrix, ShapeError,
                                mask_from_indices, mat_mul, simplify_basis_tuple,
                                standard_polynomial, standard_polynomial_basis_row,
                                substitute_generators)
from trailsum.trails import BudgetExceededError


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
            GrassmannElement.one(2) * GrassmannElement.one(3)

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


class TestValueContract:
    @pytest.mark.parametrize("name", ["m", "terms"])
    def test_element_fields_are_read_only(self, name):
        x = GrassmannElement.generator(2, 1)
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))

    @pytest.mark.parametrize("name", ["n", "rows"])
    def test_matrix_fields_are_read_only(self, name):
        mat = GrassmannMatrix.identity(2, 1)
        with pytest.raises(AttributeError):
            setattr(mat, name, getattr(mat, name))

    @pytest.mark.parametrize("terms", [{1: 0.5}, {1.0: 1}, {True: 1}, {1: True}])
    def test_rejects_non_integer_terms(self, terms):
        with pytest.raises(TypeError):
            GrassmannElement(1, terms)

    @pytest.mark.parametrize("m", [True, 1.5])
    def test_rejects_non_integer_generator_count(self, m):
        with pytest.raises(TypeError):
            GrassmannElement(m)

    @pytest.mark.parametrize("m, terms", [(-1, None), (1, {2: 1}), (2, {-1: 1})])
    def test_rejects_a_bad_generator_count_or_mask(self, m, terms):
        with pytest.raises(ValueError):
            GrassmannElement(m, terms)

    @pytest.mark.parametrize("indices", [[0], [3], [1, 1], [2, 1, 2]])
    def test_mask_from_indices_rejects_bad_indices(self, indices):
        with pytest.raises(ValueError):
            mask_from_indices(indices, 2)

    @pytest.mark.parametrize("indices", [[True], [1, True], [1.0]])
    def test_mask_from_indices_rejects_non_integers(self, indices):
        with pytest.raises(TypeError):
            mask_from_indices(indices, 2)

    def test_generator_rejects_bools(self):
        with pytest.raises(TypeError):
            GrassmannElement.generator(2, True)

    @pytest.mark.parametrize("n, m, rows, error", [
        (0, 1, [], ValueError),
        (2, 1, [[GrassmannElement.zero(1)] * 2], ShapeError),
        (2, 1, [[GrassmannElement.zero(1)] * 2, [GrassmannElement.zero(1)]], ShapeError),
        (1, 1, [[1]], TypeError),
        (1, 1, [[GrassmannElement.zero(2)]], ShapeError),
    ])
    def test_matrix_rejects_bad_shapes_and_entries(self, n, m, rows, error):
        with pytest.raises(error):
            GrassmannMatrix(n, m, rows)

    @pytest.mark.parametrize("n, m, entry", [
        (True, 1, GrassmannElement.zero(1)),
        (1.0, 1, GrassmannElement.zero(1)),
        # its entry's m == True, so it would equal GrassmannMatrix.identity(1, 1)
        (1, True, GrassmannElement.one(1)),
    ])
    def test_matrix_rejects_non_integer_sizes(self, n, m, entry):
        with pytest.raises(TypeError):
            GrassmannMatrix(n, m, [[entry]])

    @pytest.mark.parametrize("alpha, beta", [(0, 1), (1, 3), (3, 3)])
    def test_unit_rejects_a_position_out_of_range(self, alpha, beta):
        with pytest.raises(ValueError):
            GrassmannMatrix.unit(2, 1, alpha, beta)

    @pytest.mark.parametrize("alpha, beta", [(True, 2), (1, True), (1.0, 2)])
    def test_unit_rejects_non_integers(self, alpha, beta):
        with pytest.raises(TypeError):
            GrassmannMatrix.unit(2, 1, alpha, beta)

    @pytest.mark.parametrize("op, left, right", [
        (operator.add, GrassmannElement.generator(1, 1), 1),
        (operator.sub, GrassmannElement.generator(1, 1), 1),
        (operator.mul, 1.5, GrassmannElement.generator(1, 1)),
        (operator.add, GrassmannMatrix.identity(2, 1), 1),
        (operator.sub, GrassmannMatrix.identity(2, 1), 1),
        (operator.mul, GrassmannMatrix.identity(2, 1), 1.5),
        (operator.mul, 1.5, GrassmannMatrix.identity(2, 1)),
    ])
    def test_other_operands_are_refused(self, op, left, right):
        with pytest.raises(TypeError):
            op(left, right)

    @pytest.mark.parametrize("value", [GrassmannElement.generator(1, 1),
                                       GrassmannMatrix.identity(2, 1)])
    def test_scaling_rejects_bools(self, value):
        with pytest.raises(TypeError):
            value * True
        with pytest.raises(TypeError):
            True * value

    def test_matrix_subtraction_negation_and_int_scaling(self):
        v1 = GrassmannElement.generator(1, 1)
        a = GrassmannMatrix.unit(2, 1, 1, 2, v1)
        b = GrassmannMatrix.identity(2, 1)
        assert (a - a).is_zero()
        assert a - b == a + (-b)
        assert (-b).entry(2, 2) == GrassmannElement.scalar(1, -1)
        assert -(-a) == a
        assert 3 * a == a * 3 == a + a + a
        assert (-1) * b == -b

    def test_equal_terms_give_equal_elements(self):
        x = GrassmannElement(3, {0b011: 2, 0b100: -1, 0: 5})
        same = [GrassmannElement(3, {0: 5, 0b100: -1, 0b011: 2}),
                GrassmannElement(3, {0b110: 0, 0b011: 2, 0: 5, 0b001: 0, 0b100: -1})]
        for y in same:
            assert y == x and hash(y) == hash(x)
        assert GrassmannElement(3, {0b101: 0}) == GrassmannElement.zero(3)
        assert hash(GrassmannElement(3, {0b101: 0})) == hash(GrassmannElement.zero(3))

    def test_equal_matrices_hash_equal(self):
        v1 = GrassmannElement.generator(2, 1)
        a = GrassmannMatrix.unit(2, 2, 1, 2, v1)
        b = GrassmannMatrix(2, 2, [[GrassmannElement.zero(2), GrassmannElement(2, {1: 1, 2: 0})],
                                   [GrassmannElement.zero(2)] * 2])
        c = GrassmannMatrix.unit(2, 2, 2, 1, v1)
        assert a == b and hash(a) == hash(b) and a != c
        assert len({a, b, c}) == 2


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

    def test_budget_boundary_is_exact(self):
        # 4 singletons, then 6 pairs created before their rows cancel
        xs = [GrassmannMatrix.identity(1, 0)] * 4
        assert standard_polynomial(xs, max_nodes=10).is_zero()
        with pytest.raises(BudgetExceededError):
            standard_polynomial(xs, max_nodes=9)

    def test_empty_and_shape_errors(self):
        with pytest.raises(ValueError):
            standard_polynomial([])
        with pytest.raises(TypeError):
            standard_polynomial([1, 2])
        with pytest.raises(ShapeError):
            standard_polynomial([GrassmannMatrix.identity(2, 0),
                                 GrassmannMatrix.identity(3, 0)])


class TestStandardPolynomialRow:
    """The row DP behind standard_polynomial: every row from the oracle, the
    budget spent row by row, and the arguments left as they were."""

    @staticmethod
    def _tuples():
        rng = random.Random(12)
        for n in (1, 2, 3):
            for k in range(1, 7):
                m = rng.randint(1, 3)
                yield n, [random_matrix(rng, n, m) for _ in range(k)]
                m = rng.randint(k // 2, k)
                yield n, [random_basis_matrix(rng, n, m) for _ in range(k)]

    def test_matches_full_matrix_and_oracle(self):
        nonzero = 0
        for n, xs in self._tuples():
            full = standard_polynomial(xs)
            assert matrix_to_oracle(full) == o_standard_polynomial(
                [matrix_to_oracle(x) for x in xs], n)
            nonzero += not full.is_zero()
        assert nonzero > 0

    def test_budget_counts_one_row(self):
        # every row of four 3x3 identities creates 4 singletons and 6 pairs;
        # a row spends 10 states, the full matrix one budget over 3 rows
        xs = [GrassmannMatrix.identity(3, 0)] * 4
        index, k = grassmann._index(3, grassmann._arguments(xs)[2])
        for s in range(3):
            assert grassmann._alternating_row(index, k, s, 0, 10)[1] == 10
        assert standard_polynomial(xs, max_nodes=30).is_zero()
        with pytest.raises(BudgetExceededError):
            standard_polynomial(xs, max_nodes=29)

    def test_argument_errors(self):
        # the reader checks every argument, wherever it stands in the tuple
        ident = GrassmannMatrix.identity(2, 0)
        for xs in ([ident, 1], [1, ident], [ident, ident, "x"]):
            with pytest.raises(TypeError):
                standard_polynomial(xs)
        for xs in ([ident, GrassmannMatrix.identity(2, 1)],
                   [ident, ident, GrassmannMatrix.identity(1, 0)]):
            with pytest.raises(ShapeError):
                standard_polynomial(xs)
        with pytest.raises(ValueError):
            standard_polynomial(iter([]))
        assert standard_polynomial(iter([ident, ident])).is_zero()

    @staticmethod
    def _cancelling():
        # a and b have entries in both columns of row 1, and row 1 of the
        # state {a, b} is ab - ba = [1, 0]: its second column cancels within
        # the layer; c and d have entries of several monomials
        z, one = GrassmannElement.zero(2), GrassmannElement.one(2)
        v1, v2 = GrassmannElement.generator(2, 1), GrassmannElement.generator(2, 2)
        return [GrassmannMatrix(2, 2, [[one, one], [z, z]]),
                GrassmannMatrix(2, 2, [[one, one], [one, z]]),
                GrassmannMatrix(2, 2, [[z, v1 + v2 * 2], [v1 - v2, z]]),
                GrassmannMatrix(2, 2, [[v2 + one, z], [v1, z]])]

    def test_entries_of_several_monomials_match_oracle(self):
        rng = random.Random(13)
        cases = [self._cancelling()]
        for _ in range(40):
            n, m, k = rng.randint(1, 3), rng.randint(0, 4), rng.randint(1, 5)
            cases.append([random_matrix(rng, n, m, max_terms=4) for _ in range(k)])
        for xs in cases:
            n = xs[0].n
            naive = o_standard_polynomial([matrix_to_oracle(x) for x in xs], n)
            assert matrix_to_oracle(standard_polynomial(xs)) == naive

    def test_budget_with_a_column_cancelling_within_a_layer(self):
        # row 1 creates 15 states and row 2 14
        xs = self._cancelling()
        got = standard_polynomial(xs, max_nodes=29)
        assert [[str(e) for e in row] for row in got.rows] == [
            ["-6*v1v2", "+2*v1v2"], ["+10*v1v2", "+4*v1v2"]]
        with pytest.raises(BudgetExceededError, match="^budget exceeded: 29 "):
            standard_polynomial(xs, max_nodes=28)

    def test_arguments_are_not_mutated(self):
        rng = random.Random(14)
        shared = GrassmannElement(3, {0: 2, 3: -1, 4: 1})
        for _ in range(20):
            n, k = rng.randint(1, 3), rng.randint(1, 5)
            xs = [GrassmannMatrix(n, 3, [[shared if rng.random() < 0.3
                                          else random_element(rng, 3, 4, 3)
                                          for _ in range(n)] for _ in range(n)])
                  for _ in range(k)]
            before = [[[dict(e.terms) for e in row] for row in x.rows] for x in xs]
            standard_polynomial(xs)
            assert [[[e.terms for e in row] for row in x.rows] for x in xs] == before
        assert shared.terms == {0: 2, 3: -1, 4: 1}


class TestStandardPolynomialBasisRow:
    """Row s of s_k over basis triples (alpha, beta, mask), no matrix built."""

    def test_matches_matrix_row_and_oracle(self):
        rng = random.Random(15)
        nonzero = 0
        for _ in range(60):
            n, m, k = rng.randint(1, 3), rng.randint(0, 4), rng.randint(1, 6)
            basis = [(rng.randint(1, n), rng.randint(1, n), rng.randrange(1 << m))
                     for _ in range(k)]
            xs = [GrassmannMatrix.unit(n, m, a, b, GrassmannElement(m, {mask: 1}))
                  for a, b, mask in basis]
            full = standard_polynomial(xs)
            naive = o_standard_polynomial([matrix_to_oracle(x) for x in xs], n)
            for s in range(1, n + 1):
                row = standard_polynomial_basis_row(n, m, basis, s)
                assert row == full.rows[s - 1]
                assert [element_to_oracle(e) for e in row] == naive[s - 1]
                nonzero += any(row)
        assert nonzero > 0

    def test_no_arguments_give_the_identity_row(self):
        for n, m in ((1, 0), (3, 2)):
            for s in range(1, n + 1):
                row = standard_polynomial_basis_row(n, m, [], s, max_nodes=0)
                assert row == GrassmannMatrix.identity(n, m).rows[s - 1]

    def test_argument_errors(self):
        basis = [(1, 2, 1), (2, 1, 0)]
        for s in (True, 1.0, "1", None):
            with pytest.raises(TypeError):
                standard_polynomial_basis_row(2, 1, basis, s)
        for n, m in ((True, 1), (2.0, 1), (2, False), (2, None)):
            with pytest.raises(TypeError):
                standard_polynomial_basis_row(n, m, basis, 1)
        for bad in ((True, 2, 0), (1, 2.0, 0), (1, 2, True), (1, 2, None)):
            with pytest.raises(TypeError):
                standard_polynomial_basis_row(2, 1, [bad], 1)
        for s in (0, 3, -1):
            with pytest.raises(ValueError, match=f"^row {s} outside 1..2$"):
                standard_polynomial_basis_row(2, 1, basis, s)
        for n, m in ((0, 1), (2, -1)):
            with pytest.raises(ValueError):
                standard_polynomial_basis_row(n, m, [], 1)
        for bad in ((0, 1, 0), (1, 3, 0), (-1, 1, 0), (3, 3, 0)):
            with pytest.raises(ValueError, match="^basis position .* outside 1..2$"):
                standard_polynomial_basis_row(2, 1, [bad], 1)
        for mask in (2, -1, 4):
            # on row 2, so row 1 never reaches it: the check is on the input
            with pytest.raises(ValueError, match="outside algebra on 1 generators$"):
                standard_polynomial_basis_row(2, 1, [(2, 2, mask)], 1)


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

    @pytest.mark.parametrize("entry", [
        GrassmannElement(1, {0: 1, 1: 1}),      # 1 + v1
        GrassmannElement.scalar(1, 2),          # 2
        GrassmannElement.zero(1),               # the zero matrix
    ])
    def test_rejects_an_entry_not_in_basis_form(self, entry):
        with pytest.raises(ValueError):
            simplify_basis_tuple([GrassmannMatrix.unit(2, 1, 1, 2, entry)])

    @pytest.mark.parametrize("xs, error", [
        ([], ValueError),
        ([GrassmannMatrix.unit(2, 1, 1, 2), GrassmannMatrix.unit(2, 2, 1, 2)], ShapeError),
        ([GrassmannMatrix.unit(2, 1, 1, 2), GrassmannMatrix.unit(3, 1, 1, 2)], ShapeError),
    ])
    def test_rejects_an_empty_or_mixed_tuple(self, xs, error):
        with pytest.raises(error):
            simplify_basis_tuple(xs)

    @pytest.mark.parametrize("bad, error", [
        ("int", TypeError), ("shape", ShapeError), ("algebra", ShapeError)])
    def test_tuple_errors_come_before_the_zero_verdict(self, bad, error):
        # the first two inputs share v1, but the tuple is read whole first
        v1 = GrassmannElement.generator(2, 1)
        last = {"int": 1, "shape": GrassmannMatrix.unit(3, 2, 1, 2),
                "algebra": GrassmannMatrix.unit(2, 1, 1, 2)}[bad]
        xs = [GrassmannMatrix.unit(2, 2, 1, 1, v1), GrassmannMatrix.unit(2, 2, 1, 2, v1), last]
        assert simplify_basis_tuple(xs[:2]).zero
        with pytest.raises(error):
            simplify_basis_tuple(xs)

    @pytest.mark.parametrize("mapping", [{1: 2, 2: 1}, {1: 1, 2: 1}])
    def test_substitution_needs_an_increasing_map(self, mapping):
        with pytest.raises(ValueError):
            substitute_generators(GrassmannElement.generator(2, 1), mapping, 2)

    def test_substitution_names_a_generator_the_map_misses(self):
        x = GrassmannElement(3, {0b101: 2})
        with pytest.raises(ValueError, match="no image for generator 3$"):
            substitute_generators(x, {1: 1}, 3)
        assert substitute_generators(x, {1: 1, 3: 2}, 2) == GrassmannElement(2, {0b11: 2})

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
