import pytest
from hypothesis import given
from hypothesis import strategies as st

from hesscomb import QPolynomial, q_factorial, q_int
from hesscomb.errors import OutOfRange

qpolys = st.dictionaries(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=-50, max_value=50),
    max_size=6,
).map(QPolynomial)


def test_zero_one_and_truthiness():
    assert not QPolynomial.zero()
    assert QPolynomial.one()
    assert QPolynomial({3: 0}) == QPolynomial.zero()
    assert QPolynomial.from_int(5)(1) == 5


def test_q_int_values():
    assert q_int(0) == QPolynomial.zero()
    assert q_int(1) == QPolynomial.one()
    assert q_int(3) == QPolynomial({0: 1, 1: 1, 2: 1})


def test_q_factorial_values():
    assert q_factorial(0) == QPolynomial.one()
    assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)
    assert q_factorial(4)(1) == 24


def test_q_factorial_of_a_negative_integer_raises():
    # like q_int: [k]_q! is defined for k >= 0 only
    for k in (-1, -2):
        with pytest.raises(OutOfRange):
            q_factorial(k)


def test_arithmetic_examples():
    p = q_int(2) * q_int(2)
    assert p == QPolynomial({0: 1, 1: 2, 2: 1})
    assert p - p == QPolynomial.zero()
    assert (p * q_int(2))(1) == 8
    assert QPolynomial.q(2) * QPolynomial.q(3) == QPolynomial.q(5)


def test_degree_and_coefficient():
    p = QPolynomial({0: 1, 4: -2})
    assert p.degree() == 4
    assert p.coefficient(4) == -2
    assert p.coefficient(1) == 0


def test_palindromic():
    p = q_factorial(4)
    coeffs = [p.coefficient(e) for e in range(p.degree() + 1)]
    assert coeffs == coeffs[::-1]


def test_pairs_sorted_and_latex():
    p = QPolynomial({2: 1, 0: 1, 1: 4})
    assert p.pairs() == [(0, 1), (1, 4), (2, 1)]
    assert "q" in p.latex()
    assert str(QPolynomial.zero()) == "0"


def test_text_and_latex_terms():
    p = QPolynomial({0: -2, 1: 1, 2: -1, 3: 5, 10: -3, 11: 1})
    assert str(p) == "-2 + q - q^2 + 5*q^3 - 3*q^10 + q^11"
    assert p.latex() == "-2 + q - q^{2} + 5q^{3} - 3q^{10} + q^{11}"
    assert str(QPolynomial({1: -1})) == QPolynomial({1: -1}).latex() == "-q"
    assert QPolynomial.zero().latex() == "0"


@given(qpolys, qpolys)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(qpolys, qpolys, qpolys)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(qpolys, st.integers(min_value=-3, max_value=3))
def test_evaluation_is_ring_map(a, v):
    b = q_int(2)
    assert (a * b)(v) == a(v) * b(v)
    assert (a + b)(v) == a(v) + b(v)


@given(st.integers(min_value=1, max_value=8))
def test_q_factorial_at_one_is_factorial(k):
    import math

    assert q_factorial(k)(1) == math.factorial(k)
