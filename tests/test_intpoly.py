"""The polynomial arithmetic core: IntPoly against evaluation at integer
points, and one shared definition of each operator for both kinds."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hesscomb import IntPoly, QPolynomial
from hesscomb.intpoly import _Poly, product


def evaluate(p: IntPoly, point: tuple[int, ...]) -> int:
    return sum(c * math.prod(x**e for x, e in zip(point, exps)) for exps, c in p.terms.items())


@st.composite
def polys_and_point(draw):
    """Two polynomials on 1 to 3 variables and an integer point."""
    nvars = draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
    poly = st.dictionaries(exps, st.integers(min_value=-20, max_value=20), max_size=5)
    a, b = (IntPoly(nvars, draw(poly)) for _ in range(2))
    point = draw(st.tuples(*[st.integers(min_value=-3, max_value=3)] * nvars))
    return a, b, point


@given(polys_and_point(), st.integers(min_value=-4, max_value=4))
def test_evaluation_is_a_ring_map(case, k):
    a, b, x = case
    ax, bx = evaluate(a, x), evaluate(b, x)
    assert evaluate(a + b, x) == ax + bx
    assert evaluate(a - b, x) == ax - bx
    assert evaluate(a * b, x) == ax * bx
    assert evaluate(-a, x) == -ax
    assert evaluate(a * k, x) == evaluate(k * a, x) == ax * k
    assert evaluate(k - a, x) == k - ax
    assert evaluate(a + k, x) == ax + k


@given(polys_and_point())
def test_results_hold_no_zero_coefficients(case):
    a, b, _ = case
    for p in (a + b, a - b, a * b, a - a, a * 0):
        assert 0 not in p.terms.values()
        assert p == IntPoly(a.nvars, p.terms)
    assert not a - a and a - a == 0


def test_product_and_constants():
    t1, t2 = IntPoly.var(2, 1), IntPoly.var(2, 2)
    assert product(2, [t1 - t2, t1 + t2]) == t1 * t1 - t2 * t2
    assert product(2, []) == 1 == IntPoly.const(2, 1)
    assert IntPoly.zero(2) == 0 and IntPoly.const(2, 0) == IntPoly.zero(2)
    assert hash(IntPoly.const(2, 3)) == hash(3 + IntPoly.zero(2))


SHARED = ("__bool__", "__eq__", "__hash__", "_coerce", "__add__", "__radd__",
          "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__")


@pytest.mark.parametrize("name", SHARED)
def test_both_kinds_share_each_operator(name):
    # one definition in the core; a second copy in either kind fails here
    assert getattr(IntPoly, name) is getattr(QPolynomial, name) is getattr(_Poly, name)
    assert name not in vars(IntPoly) and name not in vars(QPolynomial)


def test_both_kinds_share_the_unchecked_builder():
    assert IntPoly._of.__func__ is QPolynomial._of.__func__ is _Poly._of.__func__
    assert "_of" not in vars(IntPoly) and "_of" not in vars(QPolynomial)
