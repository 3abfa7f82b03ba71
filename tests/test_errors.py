"""The error contract: every public entry point either answers or raises a
HesscombError (a ValueError), never a bare KeyError, JSONDecodeError or
tuple-unpack error, and never a silent answer for the wrong n."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesscomb import (
    GkmClass,
    HesscombError,
    HessenbergFunction,
    IncGraph,
    IntPoly,
    KeyNotFound,
    KOutOfRange,
    MalformedInput,
    NotInBasis,
    OutOfRange,
    Partition,
    PTableau,
    ShapeMismatch,
    SymFn,
    XYElement,
    XYMonomial,
    all_hessenberg_functions,
    all_permutations,
    basis_B3,
    class_t,
    class_x,
    class_y,
    coordinates,
    count_syt,
    csf_by_coloring,
    element_to_gkm,
    graded_quotient_rank,
    in_t_ideal,
    lookup,
    monomial_to_gkm,
    multiply,
    new_hessenberg,
    normal_form,
    partitions_of,
    sn_fixed_rank,
    syt_with_bottom_pair,
)
from hesscomb import gkm
from hesscomb.qpoly import QPolynomial, q_factorial, q_int

H233 = new_hessenberg([2, 3, 3])
DECODERS = (HessenbergFunction, XYElement, SymFn, PTableau)


# --- the variable count must match h.n ---------------------------------------


def test_normal_form_rejects_wrong_n():
    with pytest.raises(ShapeMismatch):
        normal_form(XYElement.monomial(XYMonomial((3, 0, 0, 0))), H233)


def test_multiply_rejects_wrong_n():
    with pytest.raises(ShapeMismatch):
        multiply(H233, XYElement.one(3), XYElement.one(4))
    with pytest.raises(ShapeMismatch):
        multiply(H233, XYElement.one(4), XYElement.one(3))


def test_monomial_to_gkm_rejects_wrong_n():
    with pytest.raises(ShapeMismatch):
        monomial_to_gkm(XYMonomial((1, 0)), H233)


def test_element_to_gkm_rejects_wrong_n():
    with pytest.raises(ShapeMismatch):
        element_to_gkm(XYElement.monomial(XYMonomial((1, 0))), H233)


def test_in_t_ideal_rejects_wrong_n():
    # The size is checked before a filtration is built, so a rejected class
    # neither builds one nor evicts a live one from the bounded cache.
    gkm._filtration.cache_clear()
    with pytest.raises(ShapeMismatch):
        in_t_ideal(class_x(4, 1), H233)
    info = gkm._filtration.cache_info()
    assert (info.currsize, info.misses) == (0, 0)


# --- plain ValueErrors and KeyErrors mapped onto the taxonomy -----------------


@pytest.mark.parametrize("cls", DECODERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("text", ["{}", "x", "[]", "null", '{"h": 5}'])
def test_decoders_raise_malformed_input(cls, text):
    with pytest.raises(MalformedInput):
        cls.from_json(text)


def test_decoders_keep_inner_error_types():
    with pytest.raises(MalformedInput):
        XYElement.from_json('{"terms": [{}]}')
    with pytest.raises(ShapeMismatch):
        XYElement.from_json('{"terms": []}')
    with pytest.raises(MalformedInput):
        HessenbergFunction.from_json('{"n": 3, "h": ["a"]}')
    with pytest.raises(OutOfRange):
        HessenbergFunction.from_json('{"n": 4, "h": [2, 3, 3]}')


@pytest.mark.parametrize("cls,text", [
    (HessenbergFunction, '{"n": 3, "h": "233"}'),
    (HessenbergFunction, '{"n": 3, "h": [2.7, 3, 3]}'),
    (HessenbergFunction, '{"n": 3, "h": ["2", 3, 3]}'),
    (HessenbergFunction, '{"n": 3, "h": [true, 3, 3]}'),
    (HessenbergFunction, '{"n": 3.0, "h": [2, 3, 3]}'),
    (PTableau, '{"shape": [1], "rows": [["a"]]}'),
    (PTableau, '{"shape": [true], "rows": [[1]]}'),
    (PTableau, '{"shape": [1], "rows": [[1.0]]}'),
    (XYElement, '{"terms": [{"x": [1, 0], "y": null, "c": 0.5}]}'),
    (XYElement, '{"terms": [{"x": [1.5, 0], "c": 1}]}'),
    (XYElement, '{"terms": [{"x": [1, 0], "y": true, "c": 1}]}'),
    (SymFn, '{"degree": 2.0, "basis": "schur", "terms": []}'),
    (SymFn, '{"degree": 2, "basis": "schur", "terms": [{"partition": [true, true], "coeff": [[0, 1]]}]}'),
    (SymFn, '{"degree": 2, "basis": "schur", "terms": [{"partition": [2], "coeff": [[0, 1.5]]}]}'),
])
def test_decoders_reject_non_integer_entries(cls, text):
    with pytest.raises(MalformedInput, match="must be an integer"):
        cls.from_json(text)


@pytest.mark.parametrize("values", [[2.7, 3, 3], [2.0, 3, 3], ["2", 3, 3], "233", [True, 3, 3]])
def test_new_hessenberg_rejects_non_integers(values):
    with pytest.raises(HesscombError):
        new_hessenberg(values)


@pytest.mark.parametrize("values", [5, None])
def test_new_hessenberg_rejects_non_iterable(values):
    with pytest.raises(MalformedInput):
        new_hessenberg(values)


INT_ARGUMENTS = {
    "graded_quotient_rank": lambda v: graded_quotient_rank(H233, v),
    "sn_fixed_rank": lambda v: sn_fixed_rank(H233, v),
    "class_t": lambda v: class_t(3, v),
    "class_x": lambda v: class_x(3, v),
    "class_t n": lambda v: class_t(v, 1),
    "class_x n": lambda v: class_x(v, 1),
    "class_y": lambda v: class_y(H233, v),
    "syt_with_bottom_pair n": lambda v: syt_with_bottom_pair(v, 2),
    "syt_with_bottom_pair k": lambda v: syt_with_bottom_pair(3, v),
    "q_int": q_int,
    "q_factorial": q_factorial,
    "all_hessenberg_functions": lambda v: list(all_hessenberg_functions(v)),
    "IntPoly.var": lambda v: IntPoly.var(3, v),
    "IntPoly coefficient": lambda v: IntPoly(2, {(1, 0): v}),
    "QPolynomial exponent": lambda v: QPolynomial({v: 1}),
    "QPolynomial coefficient": lambda v: QPolynomial({1: v}),
    "QPolynomial.q": QPolynomial.q,
    "GkmClass.constant": lambda v: GkmClass.constant(v, 1),
    "GkmClass.constant value": lambda v: GkmClass.constant(3, v),
    "all_permutations": all_permutations,
    "partitions_of": partitions_of,
    "Partition through count_syt": lambda v: count_syt(Partition((v, 1))),
    "XYMonomial exponent": lambda v: XYMonomial((0, v, 0)),
    "XYElement coefficient": lambda v: XYElement.monomial(XYMonomial((0, 1, 0)), v),
    "XYElement n": lambda v: XYElement(v, {}),
    "XYElement.one": XYElement.one,
}


@pytest.mark.parametrize("value", [2.0, "2", None, True], ids=repr)
@pytest.mark.parametrize("call", INT_ARGUMENTS.values(), ids=INT_ARGUMENTS.keys())
def test_integer_arguments_reject_other_types(call, value):
    # 2.0 and True compare like 2, and hash like it in a cache, so each is
    # refused before any comparison or cache lookup, and before a filtration
    # is built.
    gkm._filtration.cache_clear()
    with pytest.raises(MalformedInput, match="must be an integer"):
        call(value)
    assert gkm._filtration.cache_info().currsize == 0


@pytest.mark.parametrize("value", [2.0, "2", True], ids=repr)
def test_y_index_rejects_other_types(value):
    # as above, but None is a valid y index: the monomial has no y factor
    with pytest.raises(MalformedInput, match="must be an integer"):
        XYMonomial((0, 0, 0), value)


@pytest.mark.parametrize("exps", [[0, 1], "01", range(2)], ids=repr)
def test_monomial_exponents_must_be_a_tuple(exps):
    # a list would be accepted and then fail as an unhashable dict key
    with pytest.raises(MalformedInput, match="must be a tuple"):
        XYMonomial(exps)


@pytest.mark.parametrize("key", [["fig4"], {"fig4": 1}, 4, None], ids=repr)
def test_golden_lookup_rejects_keys_that_are_not_names(key):
    with pytest.raises(KeyNotFound):
        lookup(key)


@pytest.mark.parametrize("edge", [(1, 5), (0, 1), (2, 1), (2, 2)])
def test_coloring_rejects_edges_outside_the_vertices(edge):
    with pytest.raises(OutOfRange):
        csf_by_coloring(IncGraph(3, frozenset({edge})))


def test_coordinates_rejects_non_monomial_basis():
    b3 = basis_B3(H233)
    with pytest.raises(NotInBasis):
        coordinates(b3.elements[0], list(b3.elements))


def test_polynomial_arguments_out_of_range():
    with pytest.raises(OutOfRange):
        q_int(-1)
    with pytest.raises(OutOfRange):
        QPolynomial({-1: 1})
    with pytest.raises(KOutOfRange):
        IntPoly.var(3, 5)


# --- fuzzing the decoders -----------------------------------------------------

# Keys the four layouts read, so that random documents reach past the first
# lookup; other keys are ignored by every decoder.
KEYS = ("h", "n", "terms", "x", "y", "c", "degree", "basis", "partition",
        "coeff", "shape", "rows", "orientation")
SCALARS = (st.none() | st.booleans() | st.integers(-3, 9) | st.integers()
           | st.floats() | st.sampled_from(("schur", "bottom-up", "")) | st.text(max_size=3))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner, max_size=5),
    max_leaves=20,
)
TEXTS = st.one_of(
    JSON_VALUES.map(json.dumps),
    st.text(max_size=20),
    st.text('{}[]":,0123 hnxyc', max_size=20),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DECODERS), TEXTS)
def test_decoders_answer_or_raise_hesscomb_error(cls, text):
    try:
        cls.from_json(text)
    except HesscombError:
        pass
