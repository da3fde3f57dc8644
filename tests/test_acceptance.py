"""Acceptance suite: every exit criterion, exact comparisons only.

Criteria 01-09 pin the exact report of a ``trailsum verify`` suite at the
criterion's own seed, so each check is written once, in ``trailsum.cli``;
criterion 10 checks the algebra kernel directly.  Run with
``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion.
"""

import random
from contextlib import contextmanager
from functools import cache

from trailsum.cli import SUITES
from trailsum.grassmann import (GrassmannElement, GrassmannMatrix,
                                standard_polynomial)
from trailsum.trails import DEFAULT_NODE_BUDGET


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} ({name}): FAIL")
        raise
    print(f"criterion {num:02d} ({name}): PASS")


@cache
def report(name, seed=0):
    """The rendered report of one verify suite, run once per session."""
    return SUITES[name](seed, DEFAULT_NODE_BUDGET).render()


GN_N2 = """\
suite=gn-formulas seed=0
case=S(G2,mbar=1) expected=4 computed=4 pass=true
case=trails(G2,mbar=1) expected=8 computed=8 pass=true
case=S(G2,mbar=2) expected=36 computed=36 pass=true
case=trails(G2,mbar=2) expected=108 computed=108 pass=true
case=S(G2,mbar=3) expected=576 computed=576 pass=true
case=trails(G2,mbar=3) expected=2304 computed=2304 pass=true
"""

GN_N3 = """\
case=S(G3,mbar=1) expected=4 computed=4 pass=true
case=S(G3,mbar=2) expected=64 computed=64 pass=true
case=S(G3,mbar=3) expected=1440 computed=1440 pass=true
suite=gn-formulas cases=9 passed=9 failed=0 result=PASS
"""


def test_criterion_01_closed_forms_n2():
    with criterion(1, "closed forms at n=2"):
        assert report("gn-formulas").startswith(GN_N2)


def test_criterion_02_closed_forms_n3():
    with criterion(2, "closed forms at n=3"):
        assert report("gn-formulas").endswith(GN_N3)


def test_criterion_03_recursion():
    with criterion(3, "recursion between consecutive witness graphs"):
        assert report("recursion") == """\
suite=recursion seed=0
case=S(G4,mbar=1)=(mbar+4-1)*S(G3) expected=16 computed=16 pass=true
case=S(G4,mbar=2)=(mbar+4-1)*S(G3) expected=320 computed=320 pass=true
case=S(G5,mbar=1)=(mbar+5-1)*S(G4) expected=80 computed=80 pass=true
case=S(G5,mbar=2)=(mbar+5-1)*S(G4) expected=1920 computed=1920 pass=true
case=S(G6,mbar=1)=(mbar+6-1)*S(G5) expected=480 computed=480 pass=true
case=S(G6,mbar=2)=(mbar+6-1)*S(G5) expected=13440 computed=13440 pass=true
case=S(G7,mbar=1)=(mbar+7-1)*S(G6) expected=3360 computed=3360 pass=true
case=S(G7,mbar=2)=(mbar+7-1)*S(G6) expected=107520 computed=107520 pass=true
case=S(G4,mbar=1) expected=16 computed=16 pass=true
case=S(G5,mbar=1) expected=80 computed=80 pass=true
suite=recursion cases=10 passed=10 failed=0 result=PASS
"""


def test_criterion_04_lower_bound_witnesses():
    with criterion(4, "lower-bound witnesses have T > 0"):
        assert report("lower-bound") == """\
suite=lower-bound seed=0
case=edges(G2,mbar=1) expected=5 computed=5 pass=true
case=T(G2,mbar=1)>0 expected=True computed=True pass=true
case=edges(G2,mbar=2) expected=7 computed=7 pass=true
case=T(G2,mbar=2)>0 expected=True computed=True pass=true
case=edges(G3,mbar=1) expected=9 computed=9 pass=true
case=T(G3,mbar=1)>0 expected=True computed=True pass=true
case=edges(G3,mbar=2) expected=11 computed=11 pass=true
case=T(G3,mbar=2)>0 expected=True computed=True pass=true
case=edges(G4,mbar=1) expected=13 computed=13 pass=true
case=T(G4,mbar=1)>0 expected=True computed=True pass=true
case=edges(G4,mbar=2) expected=15 computed=15 pass=true
case=T(G4,mbar=2)>0 expected=True computed=True pass=true
suite=lower-bound cases=12 passed=12 failed=0 result=PASS
"""


def test_criterion_05_upper_bound_exhaustive_n2():
    with criterion(5, "exhaustive T = 0 at n=2, k in {6,7}, bmax=3"):
        assert report("upper-n2") == """\
suite=upper-n2 seed=0
case=classes(n=2,k=6,bmax=3) with T!=0 of 664 expected=0 computed=0 pass=true
case=classes(n=2,k=7,bmax=3) with T!=0 of 994 expected=0 computed=0 pass=true
suite=upper-n2 cases=2 passed=2 failed=0 result=PASS
"""


def test_criterion_06_amitsur_levitzki():
    with criterion(6, "unmarked graphs with 2n edges have T = 0"):
        assert report("amitsur-levitzki", 606) == """\
suite=amitsur-levitzki seed=606
case=unmarked classes(n=2,k=4) with T!=0 of 22 expected=0 computed=0 pass=true
case=sampled unmarked graphs(n=3,k=6) with T!=0 of 100 expected=0 computed=0 pass=true
suite=amitsur-levitzki cases=2 passed=2 failed=0 result=PASS
"""


def test_criterion_07_swan_identity():
    with criterion(7, "loop-resolution identity on 200 seeded graphs"):
        assert report("swan", 707) == """\
suite=swan seed=707
case=loop-resolution identity failures of 200 expected=0 computed=0 pass=true
suite=swan cases=1 passed=1 failed=0 result=PASS
"""


def test_criterion_08_bridge_equivalence():
    with criterion(8, "matrix entry equals +-T times the generator monomial"):
        assert report("bridge", 808) == """\
suite=bridge seed=808
case=cross-check failures on 100 sampled graphs expected=0 computed=0 pass=true
case=cross-check failures on all 664 classes(n=2,k=6,bmax=3) expected=0 computed=0 pass=true
suite=bridge cases=2 passed=2 failed=0 result=PASS
"""


def test_criterion_09_sign_machinery():
    with criterion(9, "relabel, swap, partition and reversal sign laws"):
        assert report("signs", 909) == """\
suite=signs seed=909
case=relabel law failures of 100 expected=0 computed=0 pass=true
case=relabel plain-sign failures on order-preserving pi expected=0 computed=0 pass=true
case=swap-sign prediction failures of 16737 expected=0 computed=0 pass=true
case=partition additivity failures of 50 expected=0 computed=0 pass=true
case=opposite-graph sign failures of 100 expected=0 computed=0 pass=true
suite=signs cases=5 passed=5 failed=0 result=PASS
"""


def _random_element(rng, m, max_terms):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rng.randrange(1 << m)] = rng.randint(-3, 3)
    return GrassmannElement(m, terms)


def _random_matrix(rng, n, m, max_terms=1):
    return GrassmannMatrix(n, m, [[_random_element(rng, m, max_terms)
                                   for _ in range(n)] for _ in range(n)])


def test_criterion_10_grassmann_kernel():
    with criterion(10, "algebra laws and the identity-prepend rule"):
        rng = random.Random(1010)

        for _ in range(150):
            m = rng.randint(0, 6)
            x, y, z = (_random_element(rng, m, 6) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            d, e = rng.randint(0, m), rng.randint(0, m)
            hx = GrassmannElement(m, {_mask(rng, m, d): rng.randint(-3, 3)})
            hy = GrassmannElement(m, {_mask(rng, m, e): rng.randint(-3, 3)})
            sign = -1 if (d * e) & 1 else 1
            assert hx * hy == sign * (hy * hx)

        for _ in range(15):
            n = rng.randint(1, 3)
            m = rng.randint(0, 6)
            k = rng.randint(2, 5)
            xs = [_random_matrix(rng, n, m) for _ in range(k - 1)]
            dup = rng.choice(xs)
            slot = rng.randrange(k)
            args = xs[:slot] + [dup] + xs[slot:]
            assert standard_polynomial(args).is_zero()

        for k in (2, 4, 6):
            n = 2 if k == 6 else rng.randint(1, 3)
            m = rng.randint(0, 6)
            xs = [_random_matrix(rng, n, m) for _ in range(k)]
            ident = GrassmannMatrix.identity(n, m)
            assert standard_polynomial([ident] + xs) == standard_polynomial(xs)
        for k in (3, 5):
            n = rng.randint(1, 2)
            m = rng.randint(0, 4)
            xs = [_random_matrix(rng, n, m) for _ in range(k)]
            ident = GrassmannMatrix.identity(n, m)
            assert standard_polynomial([ident] + xs).is_zero()


def _mask(rng, m, degree):
    return sum(1 << (i - 1) for i in rng.sample(range(1, m + 1), degree))
