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
is plain structural equality.  All values are immutable after construction.

The standard polynomial s_k is evaluated by a dynamic program over subsets
of used arguments rather than over orderings.  The state is the set U of
arguments placed so far, holding one row of the signed sum over all
orderings of U.  Appending argument i flips the sign when |{j in U : j > i}|
is odd, a count that depends on U alone, so orderings sharing a set merge.
One row costs O(2^k * k) sparse row-times-matrix updates, and only two
popcount layers of states are live at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_ARITY_CAP = 9


class ShapeError(ValueError):
    """Operands belong to different algebras or have incompatible dimensions."""


class ArityCapError(RuntimeError):
    """Alternating-sum evaluation requested above the arity cap.

    The subset DP behind ``standard_polynomial`` costs time and memory
    exponential in the number of arguments, so arities above the cap are
    refused unless the caller opts in.
    """


def mask_from_indices(indices, m: int) -> int:
    mask = 0
    for i in indices:
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


class GrassmannElement:
    """An exact-integer element of the exterior algebra on m generators."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: dict[int, int] | None = None):
        if m < 0:
            raise ValueError("generator count must be nonnegative")
        clean: dict[int, int] = {}
        if terms:
            limit = 1 << m
            for mask, coeff in sorted(terms.items()):
                if not 0 <= mask < limit:
                    raise ValueError(f"monomial mask {mask} outside algebra on {m} generators")
                if coeff:
                    clean[mask] = coeff
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannElement is immutable")

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
        if isinstance(other, int):
            return GrassmannElement(self.m, {k: v * other for k, v in self.terms.items()})
        if isinstance(other, GrassmannElement):
            self._check(other)
            return GrassmannElement(self.m, _mul_terms(self.terms, other.terms))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

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

    def __repr__(self) -> str:
        return f"GrassmannElement({self.m}, {self.terms!r})"


def ext_mul(x: GrassmannElement, y: GrassmannElement) -> GrassmannElement:
    """Exterior product; same as ``x * y``."""
    if not isinstance(x, GrassmannElement) or not isinstance(y, GrassmannElement):
        raise TypeError("ext_mul expects two GrassmannElement operands")
    return x * y


class GrassmannMatrix:
    """A square matrix with GrassmannElement entries sharing one algebra."""

    __slots__ = ("n", "m", "rows")

    def __init__(self, n: int, m: int, rows):
        if n < 1:
            raise ValueError("matrix dimension must be at least 1")
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ShapeError(f"entry grid is not {n}x{n}")
        for row in rows:
            for e in row:
                if not isinstance(e, GrassmannElement):
                    raise TypeError("matrix entries must be GrassmannElement")
                if e.m != m:
                    raise ShapeError(f"entry on {e.m} generators in a matrix over {m}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannMatrix is immutable")

    @classmethod
    def zeros(cls, n: int, m: int) -> "GrassmannMatrix":
        z = GrassmannElement.zero(m)
        return cls(n, m, [[z] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int, m: int) -> "GrassmannMatrix":
        z = GrassmannElement.zero(m)
        one = GrassmannElement.one(m)
        return cls(n, m, [[one if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, n: int, m: int, alpha: int, beta: int,
             elem: GrassmannElement | None = None) -> "GrassmannMatrix":
        """The matrix unit E_(alpha,beta), optionally scaled by an element."""
        if not (1 <= alpha <= n and 1 <= beta <= n):
            raise ValueError(f"unit position ({alpha},{beta}) outside 1..{n}")
        z = GrassmannElement.zero(m)
        e = GrassmannElement.one(m) if elem is None else elem
        if e.m != m:
            raise ShapeError("scaling element lives in a different algebra")
        rows = [[z] * n for _ in range(n)]
        rows[alpha - 1][beta - 1] = e
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
        if isinstance(other, (GrassmannElement, int)):
            return GrassmannMatrix(self.n, self.m, [[e * other for e in row] for row in self.rows])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        if isinstance(other, GrassmannElement):
            if other.m != self.m:
                raise ShapeError("scaling element lives in a different algebra")
            return GrassmannMatrix(self.n, self.m, [[other * e for e in row] for row in self.rows])
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, GrassmannMatrix):
            return NotImplemented
        return self.n == other.n and self.m == other.m and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.m, self.rows))

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows)

    def __repr__(self) -> str:
        return f"GrassmannMatrix(n={self.n}, m={self.m})"


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


def _alternating_row(entries, s: int) -> dict:
    """Row s of the alternating sum, as a sparse {column: terms} dict.

    ``entries[i]`` maps a row index of argument i to the nonzero entries of
    that row, as (column, (terms, negated terms)) pairs.  ``layer`` maps each
    set U of placed arguments of one popcount to row s of the signed sum
    over the orderings of U; a state whose row cancels to zero is dropped,
    and a layer is released as soon as the next one is built.
    """
    k = len(entries)
    layer = {0: {s: {0: 1}}}
    for _ in range(k):
        nxt: dict = {}
        for used, row in layer.items():
            for i in range(k):
                bit = 1 << i
                if used & bit:
                    continue
                by_row = entries[i]
                flip = (used >> (i + 1)).bit_count() & 1
                target = None
                for col, terms in row.items():
                    for j, signed in by_row.get(col, ()):
                        prod = _mul_terms(terms, signed[flip])
                        if not prod:
                            continue
                        if target is None:
                            target = nxt.setdefault(used | bit, {})
                        old = target.get(j)
                        target[j] = _add_terms(old, prod) if old else prod
        layer = {}
        for used, row in nxt.items():
            row = {j: t for j, t in row.items() if t}
            if row:
                layer[used] = row
    return layer.get((1 << k) - 1, {})


def standard_polynomial(xs, cap: int = DEFAULT_ARITY_CAP,
                        allow_large: bool = False) -> GrassmannMatrix:
    """Alternating sum over all orderings: sum of sgn(pi) x_pi(1) ... x_pi(k).

    Evaluated one row at a time by a dynamic program over subsets of used
    arguments, after Rosset's exterior-algebra view of s_k (S. Rosset, "A new
    proof of the Amitsur-Levitzki identity", Israel J. Math. 23, 1976).
    The sign of appending argument i after a set U of placed arguments
    depends only on U, not on the order inside it, so

        P(U | {i}) += (-1)^|{j in U : j > i}| * P(U) * x_i

    and the result is P(all arguments).  Each of the n rows costs O(2^k * k)
    sparse row-times-matrix updates, where the orderings number k!.
    """
    xs = list(xs)
    k = len(xs)
    if k == 0:
        raise ValueError("standard polynomial needs at least one argument")
    for x in xs:
        if not isinstance(x, GrassmannMatrix):
            raise TypeError("arguments must be GrassmannMatrix")
    n, m = xs[0].n, xs[0].m
    for x in xs:
        if x.n != n or x.m != m:
            raise ShapeError("arguments do not share one matrix algebra")
    if k > cap and not allow_large:
        raise ArityCapError(
            f"{k} arguments exceed the cap of {cap}; pass allow_large=True to override")

    entries = []
    for x in xs:
        by_row: dict = {}
        for r, row in enumerate(x.rows):
            for j, e in enumerate(row):
                if e.terms:
                    neg = {mk: -c for mk, c in e.terms.items()}
                    by_row.setdefault(r, []).append((j, (e.terms, neg)))
        entries.append(by_row)
    rows = []
    for s in range(n):
        row = _alternating_row(entries, s)
        rows.append([GrassmannElement(m, row.get(j)) for j in range(n)])
    return GrassmannMatrix(n, m, rows)


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


def _as_basis_form(x: GrassmannMatrix) -> tuple[int, int, int, int]:
    """Decompose c * monomial * E_(alpha,beta) with c = +-1; raises otherwise."""
    found = None
    for i, row in enumerate(x.rows):
        for j, e in enumerate(row):
            if e.is_zero():
                continue
            if found is not None:
                raise ValueError("input not in standard-basis form: several nonzero entries")
            if len(e.terms) != 1:
                raise ValueError("input not in standard-basis form: entry is not one monomial")
            (mask, coeff), = e.terms.items()
            if coeff not in (1, -1):
                raise ValueError("input not in standard-basis form: coefficient is not +-1")
            found = (i + 1, j + 1, mask, coeff)
    if found is None:
        raise ValueError("input not in standard-basis form: zero matrix")
    return found


def simplify_basis_tuple(xs) -> SimplifiedBasisTuple:
    """Normalize a tuple of standard-basis matrices for alternating evaluation.

    If two inputs share a generator the alternating sum is zero outright.
    Otherwise even-degree monomials, and all generators but the lowest of
    odd-degree monomials, are central and factor out into one monomial
    prefix; the remaining elements carry at most one generator each, which
    are then renumbered ascending to 1..l.
    """
    xs = list(xs)
    if not xs:
        raise ValueError("empty tuple")
    m = xs[0].m
    n = xs[0].n
    parsed = []
    seen = 0
    for x in xs:
        if x.n != n or x.m != m:
            raise ShapeError("inputs do not share one matrix algebra")
        alpha, beta, mask, coeff = _as_basis_form(x)
        if mask & seen:
            return SimplifiedBasisTuple(True, 1, GrassmannElement.one(m), ())
        seen |= mask
        parsed.append((alpha, beta, mask, coeff))

    sign = 1
    prefix_mask = 0
    kept: list[tuple[int, int, int]] = []  # (alpha, beta, original generator or 0)
    for alpha, beta, mask, coeff in parsed:
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
        kept.append((alpha, beta, gen))

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
    """Rename generators through a strictly increasing index map (sign-free)."""
    items = sorted(mapping.items())
    for (a, fa), (b, fb) in zip(items, items[1:]):
        if not (a < b and fa < fb):
            raise ValueError("generator mapping must be strictly increasing")
    out = {}
    for mask, coeff in x.terms.items():
        new_mask = mask_from_indices([mapping[i] for i in indices_from_mask(mask)], m_new)
        out[new_mask] = coeff
    return GrassmannElement(m_new, out)
