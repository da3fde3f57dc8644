"""Exact arithmetic for matrices over a finitely generated exterior algebra.

The scalar ring is fixed to the integers, so every computation here is exact
and a nonzero result certifies nonvanishing over any commutative base ring.
An element of the algebra on anticommuting generators v_1..v_m is a sparse
integer combination of the 2^m square-free monomials.  A monomial is encoded
as a bitmask with bit i-1 standing for v_i; the product of two monomials
vanishes when the masks intersect and otherwise yields the union mask with a
sign given by the parity of crossings when the two ascending index lists are
interleaved.

Zero coefficients are pruned eagerly, so equality of elements (and matrices)
is plain structural equality of frozen, slotted dataclasses.

The standard polynomial s_k is evaluated by a dynamic program over subsets
of used arguments rather than over orderings.  The state is the set U of
arguments placed so far, holding one row of the signed sum over all
orderings of U.  Appending argument i flips the sign when |{j in U : j > i}|
is odd, a count that depends on U alone, so orderings sharing a set merge.
One row costs O(2^k * k) sparse row-times-matrix updates, and only two
popcount layers of states are live at once, each one flat map from
(U, column, monomial mask) to a coefficient.  The states created count
against the same max_nodes budget as the trail-side DP.  The DP reads its
arguments as basis terms, one (row, column, mask, coefficient) per monomial
of a nonzero entry of each argument, indexed by row (_index).  There are two
routes into it.  standard_polynomial takes whole matrices, which one reader
(_arguments) checks and expands; simplify_basis_tuple reads its tuple
through the same reader.  standard_polynomial_basis_row takes basis
elements v_P E_(a,b), such as a simplified set, as (a, b, mask of P)
triples, one term each, and computes one row with no matrix built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .trails import DEFAULT_NODE_BUDGET, BudgetExceededError


class ShapeError(ValueError):
    """Operands belong to different algebras or have incompatible dimensions."""


def mask_from_indices(indices, m: int) -> int:
    mask = 0
    for i in indices:
        if type(i) is not int:
            raise TypeError(f"generator index must be an int, not {i!r}")
        if not 1 <= i <= m:
            raise ValueError(f"generator index {i} outside 1..{m}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated generator index {i}")
        mask |= bit
    return mask


def indices_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def mul_masks(a: int, b: int) -> tuple[int, int]:
    """Product of two square-free monomial masks: (union, sign) or (0, 0).

    The sign is the parity of the number of transpositions needed to sort the
    concatenation of the two ascending generator lists, i.e. the number of
    pairs (i, j) with i in the first mask, j in the second and i > j.
    """
    if a & b:
        return 0, 0
    inv = 0
    rest = b
    while rest:
        low = rest & -rest
        inv += (a >> low.bit_length()).bit_count()
        rest ^= low
    return a | b, (-1 if inv & 1 else 1)


def _mul_terms(x: dict, y: dict) -> dict:
    out: dict = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            mm, sg = mul_masks(ma, mb)
            if sg == 0:
                continue
            c = out.get(mm, 0) + sg * ca * cb
            if c:
                out[mm] = c
            elif mm in out:
                del out[mm]
    return out


def _add_terms(x: dict, y: dict) -> dict:
    out = dict(x)
    for m, c in y.items():
        v = out.get(m, 0) + c
        if v:
            out[m] = v
        elif m in out:
            del out[m]
    return out


@dataclass(frozen=True, slots=True)
class GrassmannElement:
    """An exact-integer element of the exterior algebra on m generators."""

    m: int
    terms: dict[int, int] | None = None

    def __post_init__(self):
        m, terms = self.m, self.terms
        if type(m) is not int:
            raise TypeError(f"generator count must be an int, not {m!r}")
        if m < 0:
            raise ValueError("generator count must be nonnegative")
        clean: dict[int, int] = {}
        if terms:
            limit = 1 << m
            for mask, coeff in terms.items():
                if not (type(mask) is int and type(coeff) is int):
                    raise TypeError(f"term {mask!r}: {coeff!r} is not a pair of ints")
                if not 0 <= mask < limit:
                    raise ValueError(f"monomial mask {mask} outside algebra on {m} generators")
                if coeff:
                    clean[mask] = coeff
        object.__setattr__(self, "terms", clean)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "GrassmannElement":
        return cls(m, {})

    @classmethod
    def scalar(cls, m: int, c: int) -> "GrassmannElement":
        return cls(m, {0: c})

    @classmethod
    def one(cls, m: int) -> "GrassmannElement":
        return cls.scalar(m, 1)

    @classmethod
    def generator(cls, m: int, i: int) -> "GrassmannElement":
        return cls(m, {mask_from_indices([i], m): 1})

    @classmethod
    def monomial(cls, m: int, indices, coeff: int = 1) -> "GrassmannElement":
        return cls(m, {mask_from_indices(indices, m): coeff})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def homogeneous_degree(self) -> int | None:
        """The common degree of all monomials, or None if zero or mixed."""
        degrees = {mask.bit_count() for mask in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def coefficient(self, indices) -> int:
        return self.terms.get(mask_from_indices(indices, self.m), 0)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "GrassmannElement"):
        if self.m != other.m:
            raise ShapeError(f"mixed generator counts {self.m} and {other.m}")

    def __add__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        self._check(other)
        return GrassmannElement(self.m, _add_terms(self.terms, other.terms))

    def __sub__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return GrassmannElement(self.m, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if type(other) is int:
            return GrassmannElement(self.m, {k: v * other for k, v in self.terms.items()})
        if isinstance(other, GrassmannElement):
            self._check(other)
            return GrassmannElement(self.m, _mul_terms(self.terms, other.terms))
        return NotImplemented

    def __rmul__(self, other):
        if type(other) is int:
            return self * other
        return NotImplemented

    def __hash__(self):
        return hash((self.m, tuple(sorted(self.terms.items()))))

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms, key=lambda mk: (mk.bit_count(), indices_from_mask(mk))):
            coeff = self.terms[mask]
            sign = "+" if coeff > 0 else "-"
            word = "".join(f"v{i}" for i in indices_from_mask(mask))
            mag = abs(coeff)
            if not word:
                parts.append(f"{sign}{mag}")
            elif mag == 1:
                parts.append(f"{sign}{word}")
            else:
                parts.append(f"{sign}{mag}*{word}")
        return "".join(parts)


@dataclass(frozen=True, slots=True)
class GrassmannMatrix:
    """A square matrix with GrassmannElement entries sharing one algebra."""

    n: int
    m: int
    rows: tuple[tuple[GrassmannElement, ...], ...]

    def __post_init__(self):
        n, m = self.n, self.m
        for x in (n, m):
            if type(x) is not int:
                raise TypeError(f"matrix dimension and generator count must be ints, not {x!r}")
        if n < 1:
            raise ValueError("matrix dimension must be at least 1")
        rows = tuple(map(tuple, self.rows))
        if len(rows) != n or set(map(len, rows)) != {n}:
            raise ShapeError(f"entry grid is not {n}x{n}")
        for row in rows:
            for e in row:
                if not isinstance(e, GrassmannElement):
                    raise TypeError("matrix entries must be GrassmannElement")
                if e.m != m:
                    raise ShapeError(f"entry on {e.m} generators in a matrix over {m}")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls, n: int, m: int) -> "GrassmannMatrix":
        z = GrassmannElement.zero(m)
        one = GrassmannElement.one(m)
        return cls(n, m, [[one if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, n: int, m: int, alpha: int, beta: int,
             elem: GrassmannElement | None = None) -> "GrassmannMatrix":
        """The matrix unit E_(alpha,beta), optionally scaled by an element."""
        for x in (alpha, beta):
            if type(x) is not int:
                raise TypeError(f"matrix unit indices must be ints, not {x!r}")
        if not (1 <= alpha <= n and 1 <= beta <= n):
            raise ValueError(f"unit position ({alpha},{beta}) outside 1..{n}")
        z = GrassmannElement.zero(m)
        rows = [[z] * n for _ in range(n)]
        rows[alpha - 1][beta - 1] = GrassmannElement.one(m) if elem is None else elem
        return cls(n, m, rows)

    def entry(self, alpha: int, beta: int) -> GrassmannElement:
        return self.rows[alpha - 1][beta - 1]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def _check(self, other: "GrassmannMatrix"):
        if self.n != other.n or self.m != other.m:
            raise ShapeError(
                f"matrix shapes ({self.n},{self.m}) and ({other.n},{other.m}) differ")

    def __add__(self, other):
        if not isinstance(other, GrassmannMatrix):
            return NotImplemented
        self._check(other)
        return GrassmannMatrix(self.n, self.m, [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, GrassmannMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return GrassmannMatrix(self.n, self.m, [[-e for e in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, GrassmannMatrix):
            return mat_mul(self, other)
        if isinstance(other, GrassmannElement) or type(other) is int:
            return GrassmannMatrix(self.n, self.m, [[e * other for e in row] for row in self.rows])
        return NotImplemented

    def __rmul__(self, other):
        if type(other) is int:
            return self * other
        if isinstance(other, GrassmannElement):
            return GrassmannMatrix(self.n, self.m, [[other * e for e in row] for row in self.rows])
        return NotImplemented

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows)


def mat_mul(a: GrassmannMatrix, b: GrassmannMatrix) -> GrassmannMatrix:
    """Ordinary matrix product with exterior products in the entries."""
    a._check(b)
    n, m = a.n, a.m
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc: dict = {}
            for l in range(n):
                x = a.rows[i][l].terms
                if not x:
                    continue
                y = b.rows[l][j].terms
                if not y:
                    continue
                acc = _add_terms(acc, _mul_terms(x, y))
            row.append(GrassmannElement(m, acc))
        rows.append(row)
    return GrassmannMatrix(n, m, rows)


def _arguments(xs) -> tuple[int, int, list]:
    """Check the arguments of s_k and expand each into its basis terms.

    Returns (n, m, arguments): ``arguments[i]`` lists, for every monomial
    c * v_P of an entry (r, j) of argument i, one 0-based (r, j, mask of
    P, c) tuple.  Raises ValueError on no argument, TypeError on one that
    is not a GrassmannMatrix and ShapeError when they do not share one
    matrix algebra.
    """
    xs = list(xs)
    if not xs:
        raise ValueError("need at least one argument")
    arguments = []
    for x in xs:
        if not isinstance(x, GrassmannMatrix):
            raise TypeError("arguments must be GrassmannMatrix")
        if (x.n, x.m) != (xs[0].n, xs[0].m):
            raise ShapeError("arguments do not share one matrix algebra")
        arguments.append([(r, j, mask, coeff) for r, row in enumerate(x.rows)
                          for j, e in enumerate(row) for mask, coeff in e.terms.items()])
    return xs[0].n, xs[0].m, arguments


def _index(n: int, arguments) -> tuple[list, int]:
    """Index the basis terms of the arguments by row for ``_alternating_row``.

    ``arguments`` yields, per argument i (0-based), its (r, j, mask, c)
    terms.  Returns (index, k): ``index[r]`` lists, for every term, one
    (i + 1, 1 << i, j, mask, the generator indices in mask, c) tuple, and
    k counts the arguments.
    """
    index: list = [[] for _ in range(n)]
    k = 0
    for terms in arguments:
        k += 1
        for r, j, mask, coeff in terms:
            index[r].append((k, 1 << (k - 1), j, mask, indices_from_mask(mask), coeff))
    return index, k


def _alternating_row(index, k: int, s: int, nodes: int, max_nodes: int) -> tuple[dict, int]:
    """Row s (0-based) of the alternating sum, as a sparse {column: terms} dict.

    ``index`` is the row index of ``_index``.  ``layer`` maps each
    triple (U, j, mask) of a set U of placed arguments of one popcount, a
    column and a monomial to its coefficient in entry j of row s of the
    signed sum over the orderings of U.  A state, one set U, is created
    when the first nonzero monomial product reaches it; each term extends
    only through the index row of its column, a cancelled term is dropped,
    and a layer is released once the next is built.  Returns the row and
    ``nodes`` plus the states created (the empty set is not counted);
    raises BudgetExceededError once that passes max_nodes.
    """
    layer = {(0, s, 0): 1}
    for _ in range(k):
        nxt: dict = {}
        created = set()
        for (used, col, ma), ca in layer.items():
            for shift, bit, j, mb, gens, cb in index[col]:
                if used & bit or ma & mb:
                    continue
                grown = used | bit
                if grown not in created:
                    created.add(grown)
                    nodes += 1
                    if nodes > max_nodes:
                        raise BudgetExceededError(nodes, max_nodes)
                odd = (used >> shift).bit_count()
                for g in gens:
                    odd += (ma >> g).bit_count()
                key = (grown, j, ma | mb)
                c = nxt.get(key, 0) + (-ca * cb if odd & 1 else ca * cb)
                if c:
                    nxt[key] = c
                else:
                    del nxt[key]
        layer = nxt
    row: dict = {}
    for (_, j, mask), c in layer.items():
        row.setdefault(j, {})[mask] = c
    return row, nodes


def standard_polynomial(xs, max_nodes: int = DEFAULT_NODE_BUDGET) -> GrassmannMatrix:
    """Alternating sum over all orderings: sum of sgn(pi) x_pi(1) ... x_pi(k).

    Evaluated one row at a time by a dynamic program over subsets of used
    arguments, after Rosset's exterior-algebra view of s_k (S. Rosset, "A new
    proof of the Amitsur-Levitzki identity", Israel J. Math. 23, 1976).
    The sign of appending argument i after a set U of placed arguments
    depends only on U, not on the order inside it, so

        P(U | {i}) += (-1)^|{j in U : j > i}| * P(U) * x_i

    and the result is P(all arguments).  Each of the n rows costs O(2^k * k)
    sparse row-times-matrix updates, where the orderings number k!.  Raises
    BudgetExceededError once the states created over all rows pass
    max_nodes.
    """
    n, m, arguments = _arguments(xs)
    index, k = _index(n, arguments)
    rows = []
    nodes = 0
    for s in range(n):
        row, nodes = _alternating_row(index, k, s, nodes, max_nodes)
        rows.append([GrassmannElement(m, row.get(j)) for j in range(n)])
    return GrassmannMatrix(n, m, rows)


def standard_polynomial_basis_row(
        n: int, m: int, basis, s: int,
        max_nodes: int = DEFAULT_NODE_BUDGET) -> tuple[GrassmannElement, ...]:
    """Row s (1-based) of s_k over basis elements, as a tuple of n elements.

    ``basis`` lists the k arguments as triples (alpha, beta, mask), each
    the basis element v_P * E_(alpha,beta) of M_n E^m with P the generators
    of mask, so no matrix is built.  The row is row s of
    standard_polynomial over the matching matrix units, from the same
    dynamic program and with the states of row s alone; k = 0 is allowed,
    and s_0, the empty ordering, is the identity.  Raises TypeError when
    n, m, s or a position or mask is not an int (a bool included), and
    ValueError when n < 1, m < 0, s or a position lies outside 1..n or a
    mask outside the m generators.
    """
    for x in (n, m, s):
        if type(x) is not int:
            raise TypeError(f"dimension, generator count and row must be ints, not {x!r}")
    if n < 1 or m < 0:
        raise ValueError("need a matrix dimension of at least 1 and a nonnegative generator count")
    if not 1 <= s <= n:
        raise ValueError(f"row {s} outside 1..{n}")

    def arguments():
        for alpha, beta, mask in basis:
            for x in (alpha, beta, mask):
                if type(x) is not int:
                    raise TypeError(f"basis positions and masks must be ints, not {x!r}")
            if not (1 <= alpha <= n and 1 <= beta <= n):
                raise ValueError(f"basis position ({alpha},{beta}) outside 1..{n}")
            if mask < 0 or mask.bit_length() > m:
                raise ValueError(f"monomial mask {mask} outside algebra on {m} generators")
            yield ((alpha - 1, beta - 1, mask, 1),)

    index, k = _index(n, arguments())
    row, _ = _alternating_row(index, k, s - 1, 0, max_nodes)
    return tuple(GrassmannElement(m, row.get(j)) for j in range(n))


@dataclass(frozen=True)
class SimplifiedBasisTuple:
    """Result of pulling the central monomial content out of a basis tuple.

    When ``zero`` is set the alternating sum of the inputs vanishes because
    two of them share a generator.  Otherwise the inputs satisfy

        standard_polynomial(xs) == sign * monomial * (relabelled result)

    where ``elements`` carry single generators renumbered 1..l (the map from
    new to original labels is ``generator_map``, strictly increasing, so the
    renumbering itself is sign-free).
    """
    zero: bool
    sign: int
    monomial: GrassmannElement
    elements: tuple[GrassmannMatrix, ...]
    generator_map: dict[int, int] = field(default_factory=dict)


def simplify_basis_tuple(xs) -> SimplifiedBasisTuple:
    """Normalize a tuple of standard-basis matrices for alternating evaluation.

    If two inputs share a generator the alternating sum is zero outright.
    Otherwise even-degree monomials, and all generators but the lowest of
    odd-degree monomials, are central and factor out into one monomial
    prefix; the remaining elements carry at most one generator each, which
    are then renumbered ascending to 1..l.  Tests check it against standard_polynomial.
    The tuple is read as standard_polynomial reads it, so its ValueError,
    TypeError and ShapeError come before any verdict; an input that is
    not +-v_P * E_(alpha,beta) raises ValueError.
    """
    n, m, arguments = _arguments(xs)
    seen = 0
    sign = 1
    prefix_mask = 0
    kept: list[tuple[int, int, int]] = []  # (alpha, beta, original generator or 0)
    for terms in arguments:
        if len(terms) != 1 or terms[0][3] not in (1, -1):
            raise ValueError("input not in standard-basis form: "
                             "not one entry of one monomial with coefficient +-1")
        (r, j, mask, coeff), = terms
        if mask & seen:
            return SimplifiedBasisTuple(True, 1, GrassmannElement.one(m), ())
        seen |= mask
        sign *= coeff
        if mask.bit_count() % 2 == 0:
            out_mask = mask
            gen = 0
        else:
            low = mask & -mask
            gen = low.bit_length()
            out_mask = mask ^ low
        if out_mask:
            combined, sg = mul_masks(prefix_mask, out_mask)
            prefix_mask = combined
            sign *= sg
        kept.append((r + 1, j + 1, gen))

    originals = sorted(g for _, _, g in kept if g)
    relabel = {g: r + 1 for r, g in enumerate(originals)}
    ell = len(originals)
    elements = []
    for alpha, beta, gen in kept:
        if gen:
            elements.append(GrassmannMatrix.unit(
                n, ell, alpha, beta, GrassmannElement.generator(ell, relabel[gen])))
        else:
            elements.append(GrassmannMatrix.unit(n, ell, alpha, beta))
    gen_map = {new: old for old, new in relabel.items()}
    return SimplifiedBasisTuple(False, sign, GrassmannElement(m, {prefix_mask: 1}),
                                tuple(elements), gen_map)


def substitute_generators(x: GrassmannElement, mapping: dict[int, int],
                          m_new: int) -> GrassmannElement:
    """Rename generators through a strictly increasing map (sign-free); run by tests only."""
    items = sorted(mapping.items())
    for (a, fa), (b, fb) in zip(items, items[1:]):
        if not (a < b and fa < fb):
            raise ValueError("generator mapping must be strictly increasing")
    out = {}
    for mask, coeff in x.terms.items():
        olds = indices_from_mask(mask)
        for i in olds:
            if i not in mapping:
                raise ValueError(f"generator mapping has no image for generator {i}")
        out[mask_from_indices([mapping[i] for i in olds], m_new)] = coeff
    return GrassmannElement(m_new, out)
