import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

import coxkit
from coxkit import corpus
from coxkit import scalar
from coxkit.roots import Root
from coxkit.titscone import DualPoint
from coxkit.errors import (CoxeterError, DimensionMismatch, FieldTooLarge,
                           IncompatibleOrder, InvalidMatrix, InvariantViolation,
                           IrrationalScalar, MixedFields)
from coxkit.scalar import (INFINITY, MAX_FIELD_DEGREE, _isolating_interval, build_field,
                           cos_pi_over, double_cosine_poly, double_cosine_polys,
                           validate_matrix)

INF = math.inf


def field_for(*rows):
    return build_field(validate_matrix(rows))


A2 = ((1, 3), (3, 1))
B2 = ((1, 4), (4, 1))
G2 = ((1, 6), (6, 1))
B3 = ((1, 4, 2), (4, 1, 3), (2, 3, 1))
H3 = ((1, 5, 2), (5, 1, 3), (2, 3, 1))
RIGHT_ANGLES = ((1, 2, INF), (2, 1, 2), (INF, 2, 1))


# -- construction and minimal polynomials -------------------------------------


def test_rational_field_for_order_three():
    ctx = field_for(*A2)
    assert ctx.L == 3
    assert ctx.degree == 1
    # theta = 2cos(pi/3) = 1, so the minimal polynomial is x - 1
    assert ctx.minpoly == (Fraction(-1), Fraction(1))


def test_field_for_all_labels_in_two_and_inf():
    ctx = field_for(*RIGHT_ANGLES)
    assert ctx.L == 1
    assert ctx.degree == 1


def test_b3_minpoly_is_quartic():
    ctx = field_for(*B3)
    assert ctx.L == 12
    assert ctx.degree == 4
    # 2cos(pi/12) is a root of x^4 - 4x^2 + 1
    assert ctx.minpoly == (Fraction(1), Fraction(0), Fraction(-4),
                           Fraction(0), Fraction(1))


@pytest.mark.parametrize("rows, L, minpoly", [
    (B2, 4, (-2, 0, 1)),          # theta = sqrt(2)
    (G2, 6, (-3, 0, 1)),          # theta = sqrt(3)
])
def test_quadratic_minpolys(rows, L, minpoly):
    ctx = field_for(*rows)
    assert ctx.L == L
    assert ctx.minpoly == tuple(Fraction(c) for c in minpoly)


def test_minpoly_vanishes_at_theta():
    for rows in (A2, B2, G2, B3, H3, RIGHT_ANGLES):
        ctx = field_for(*rows)
        assert ctx.evaluate_int_poly(ctx.minpoly).is_zero()


def _matches_sympy(ctx):
    # independent route: sympy's algebraic-number machinery
    import sympy
    x = sympy.Symbol("x")
    expected = sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / ctx.L), x)
    got = sum(int(c) * x ** k for k, c in enumerate(ctx.minpoly))
    return sympy.expand(expected - got) == 0


def test_h3_minpoly_matches_sympy():
    ctx = field_for(*H3)
    assert ctx.L == 15
    assert _matches_sympy(ctx)


def _unfolds_to_cyclotomic(ctx):
    # for larger L, where sympy.minimal_polynomial takes minutes: a monic P
    # of degree m = phi(2L)/2 with z^m * P(z + 1/z) = Phi_{2L}(z) vanishes at
    # 2cos(pi/L), whose field has degree m, so P is its minimal polynomial
    import sympy
    z = sympy.Symbol("z")
    m = ctx.degree
    unfolded = sum((sympy.Poly(z ** 2 + 1, z) ** k * sympy.Poly(z ** (m - k), z) * int(c)
                    for k, c in enumerate(ctx.minpoly)), sympy.Poly(0, z))
    return (m == sympy.totient(2 * ctx.L) // 2 and ctx.minpoly[-1] == 1
            and unfolded == sympy.Poly(sympy.cyclotomic_poly(2 * ctx.L, z), z))


@pytest.mark.parametrize("L", [1] + list(range(3, 61)) + [120, 210, 360])
def test_minpoly_matches_sympy(L):
    # L = 1 arises from labels 2 and inf only; L = 2 never arises
    import sympy
    ctx = field_for((1, L), (L, 1)) if L > 1 else field_for(*RIGHT_ANGLES)
    assert ctx.L == L
    assert all(c.denominator == 1 for c in ctx.minpoly)
    assert _matches_sympy(ctx) if L <= 60 else _unfolds_to_cyclotomic(ctx)
    # the closed-form interval isolates theta among the roots of minpoly
    lo, hi = ctx._iso
    x = sympy.Symbol("x")
    poly = sympy.Poly([int(c) for c in reversed(ctx.minpoly)], x)
    assert poly.count_roots(sympy.Rational(lo.numerator, lo.denominator),
                            sympy.Rational(hi.numerator, hi.denominator)) == 1
    with mp.workdps(50):
        theta = 2 * mp.cos(mp.pi / L)
        assert mp.mpf(lo.numerator) / lo.denominator < theta < mp.mpf(hi.numerator) / hi.denominator


class _Built(Exception):
    """Raised in place of building a minimal polynomial."""


def _refuse(*args):
    raise _Built


@pytest.mark.parametrize("labels, degree", [
    ((11, 13, 17), 960),           # L = 2431
    ((1000003,), 500001),          # a prime label
    ((4 * MAX_FIELD_DEGREE ** 2 + 1,), None),  # rejected without factoring
])
def test_field_degree_cap(monkeypatch, labels, degree):
    monkeypatch.setattr(scalar, "_theta_minpoly", _refuse)
    if degree is None:
        monkeypatch.setattr(scalar, "_totient", _refuse)
    n = len(labels) + 1
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, m in enumerate(labels):
        rows[i][i + 1] = rows[i + 1][i] = m
    with pytest.raises(FieldTooLarge) as info:
        build_field(rows)
    if degree is not None:
        assert str(degree) in str(info.value)


@pytest.mark.parametrize("L", [360, 2520])
def test_field_degree_cap_admits(monkeypatch, L):
    # 2520 = lcm(1..10) has degree 576, the largest in reach of labels <= 10
    monkeypatch.setattr(scalar, "_theta_minpoly", _refuse)
    with pytest.raises(_Built):
        field_for((1, L), (L, 1))


def test_interval_without_a_sign_change_raises():
    # x^2 - 2 (theta = sqrt 2, L = 4) is positive on L = 5's interval (1.6, 2)
    with pytest.raises(InvariantViolation):
        _isolating_interval((Fraction(-2), Fraction(0), Fraction(1)), 5)
    assert _isolating_interval((Fraction(-1), Fraction(-1), Fraction(1)), 5) == (
        Fraction(8, 5), Fraction(2))


def test_engine_never_imports_sympy():
    # a fresh interpreter, importing this checkout's coxkit
    src = str(Path(coxkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, coxkit\n"
            "from coxkit import corpus\n"
            "for name in corpus.NAMES:\n"
            "    corpus.load(name)\n"
            "sys.exit('sympy' in sys.modules)\n")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_double_cosine_polynomials():
    # D_k(2cos x) = 2cos(kx); first few are classical
    assert double_cosine_poly(0) == [2]
    assert double_cosine_poly(1) == [0, 1]
    assert double_cosine_poly(2) == [-2, 0, 1]
    assert double_cosine_poly(3) == [0, -3, 0, 1]


def test_double_cosine_recurrence_matches_closed_form():
    # D_k = sum_j (-1)^j k/(k-j) C(k-j, j) x^(k-2j) for k >= 1
    polys = list(double_cosine_polys(200))
    assert len(polys) == 201
    assert polys[0] == double_cosine_poly(0) == [2]
    for k in range(1, 201):
        closed = [0] * (k + 1)
        for j in range(k // 2 + 1):
            closed[k - 2 * j] = (-1) ** j * Fraction(k, k - j) * math.comb(k - j, j)
        assert polys[k] == closed == double_cosine_poly(k)


# -- matrix validation ---------------------------------------------------------


def test_validate_rejects_asymmetric():
    with pytest.raises(InvalidMatrix):
        validate_matrix(((1, 3), (4, 1)))


def test_validate_rejects_bad_diagonal():
    with pytest.raises(InvalidMatrix):
        validate_matrix(((2, 3), (3, 1)))


def test_validate_rejects_small_offdiagonal():
    with pytest.raises(InvalidMatrix):
        validate_matrix(((1, 1), (1, 1)))


def test_validate_accepts_inf():
    m = validate_matrix(((1, INF), (INF, 1)))
    assert m[0][1] == INFINITY


# -- cosine values -------------------------------------------------------------


def test_cosine_values():
    ctx = field_for(*B3)
    assert cos_pi_over(ctx, 3) == ctx.from_rational(Fraction(1, 2))
    assert cos_pi_over(ctx, 2) == ctx.zero
    c4 = cos_pi_over(ctx, 4)
    assert c4 * c4 == ctx.from_rational(Fraction(1, 2))
    assert c4.sign() > 0
    assert cos_pi_over(ctx, INFINITY) == ctx.one


def test_cosine_of_incompatible_order():
    ctx = field_for(*A2)  # L = 3
    with pytest.raises(IncompatibleOrder):
        cos_pi_over(ctx, 4)


# -- arithmetic ----------------------------------------------------------------


def test_basic_arithmetic():
    ctx = field_for(*B3)
    half = ctx.from_rational(Fraction(1, 2))
    assert half + half == ctx.one
    c4 = cos_pi_over(ctx, 4)
    assert (2 * c4) * (2 * c4) == ctx.from_rational(2)
    a = ctx.scalar([Fraction(3, 7), Fraction(-2), Fraction(0), Fraction(5, 3)])
    assert (a - a).coeffs == (Fraction(0),) * 4


def test_signs():
    ctx = field_for(*B3)
    assert ctx.zero.sign() == 0
    c4 = cos_pi_over(ctx, 4)
    assert c4.sign() == 1
    c3 = cos_pi_over(ctx, 3)
    assert (c3 - c4).sign() == -1
    assert (c4 - c3) > ctx.zero
    assert c3 < c4


def test_overlong_coefficient_vector_rejected():
    ctx = field_for(*G2)  # degree 2
    with pytest.raises(DimensionMismatch):
        ctx.scalar([1, 2, 3])


def test_rational_constructors_take_what_coerce_takes():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    ctx = field_for(*G2)
    assert ctx.from_rational(Fraction(1, 3)) == ctx.coerce(Fraction(1, 3))
    assert 2 * ctx.scalar([1, Fraction(-1, 2)]) == 2 - ctx.theta
    for bad in (0.1, "1/3", 1j):
        for build in (ctx.from_rational, ctx.coerce, lambda q: ctx.scalar([0, q])):
            with pytest.raises(MixedFields):
                build(bad)


def test_bool_coefficients_rejected():
    # bool is an int subclass, but True is no coordinate, as it is no matrix
    # entry, generator index or count
    b3 = corpus.load("b3")
    for build in (b3.field.from_rational, b3.field.coerce, lambda q: b3.field.scalar([1, q]),
                  lambda q: DualPoint(b3, (q, False, 1)), lambda q: Root(b3, (q, 0, 1))):
        with pytest.raises(MixedFields):
            build(True)
    with pytest.raises(MixedFields):
        b3.field.one + True


def test_as_fraction_of_irrational_scalar_is_a_typed_error():
    field = corpus.load("b3").field
    assert field.from_rational(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    with pytest.raises(IrrationalScalar) as info:
        field.theta.as_fraction()
    assert isinstance(info.value, CoxeterError)
    assert isinstance(info.value, ValueError)


def test_hash_agrees_with_equality():
    ctx = field_for(*H3)
    three = ctx.from_rational(3)
    assert three == 3 and 3 in {three} and three in {3}
    half = ctx.from_rational(Fraction(1, 2))
    assert half == Fraction(1, 2) and Fraction(1, 2) in {half}
    assert {three: "x"}[3] == "x"
    theta = ctx.theta
    assert theta in {ctx.scalar([0, 1])}
    assert theta not in {ctx.one}


def test_mixed_fields_rejected():
    a = field_for(*A2).one
    b = field_for(*B2).one
    with pytest.raises(MixedFields):
        a + b


# -- property tests ------------------------------------------------------------


_CTX = field_for(*B3)


@st.composite
def scalars(draw):
    coeffs = [Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 12)))
              for _ in range(_CTX.degree)]
    return _CTX.scalar(coeffs)


@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a * _CTX.one == a
    assert (a + (-a)).is_zero()


@given(scalars(), scalars())
def test_sign_multiplicative(a, b):
    assert (a * b).sign() == a.sign() * b.sign()


@given(scalars(), scalars(), st.integers(-3, 3))
def test_comparisons_are_an_order(a, b, k):
    # <=, > and >= derive from < and ==; an int on the left is compared
    # through the reflected method
    assert (a < b) == ((b - a).sign() > 0)
    assert (a == b) == (b - a).is_zero()
    assert (a < b) or (a == b) or (a > b)
    assert (a <= b) == (b >= a) == ((b - a).sign() >= 0)
    assert (a > b) == (b < a) and (a >= b) == (not a < b)
    assert (k < a) == (a > k) == ((a - k).sign() > 0)
    assert (k <= a) == (a >= k) == ((a - k).sign() >= 0)
    assert (k > a) == (a < k) and (k >= a) == (a <= k)
    k_scalar = _CTX.from_rational(k)
    assert (k_scalar <= k) and (k_scalar >= k) and not (k < k_scalar)


@given(st.sampled_from(corpus.NAMES), st.data())
def test_less_than_zero_is_the_sign(name, data):
    # the walks' sign test q[s] < 0 takes a fast path for the int 0; a
    # fresh copy of the scalar keeps the two sides from sharing a cached sign
    field = corpus.load(name).field
    coeffs = data.draw(st.lists(st.fractions(-4, 4, max_denominator=6),
                                min_size=field.degree, max_size=field.degree))
    assert (field.scalar(coeffs) < 0) == (field.scalar(coeffs).sign() < 0)
    assert (field.scalar(coeffs) < 1) == ((field.scalar(coeffs) - 1).sign() < 0)
    assert not field.zero < 0 and not field.scalar([0] * field.degree) < 0
    other = corpus.load("h3" if name != "h3" else "b3").field
    with pytest.raises(MixedFields):
        field.scalar(coeffs) < other.zero


@given(st.sampled_from(corpus.NAMES), st.data(), st.booleans())
def test_negation_keeps_the_sign(name, data, cached):
    # -a inherits a's cached sign, negated; a fresh scalar with -a's
    # coefficients decides its sign from scratch
    field = corpus.load(name).field
    coeffs = data.draw(st.lists(st.fractions(-4, 4, max_denominator=6),
                                min_size=field.degree, max_size=field.degree))
    a = field.scalar(coeffs)
    if cached:
        a.sign()
    assert (-a).sign() == field.scalar((-a).coeffs).sign() == -a.sign()


# L = 12 and L = 60 (degree 16) reduce through tables that are half zeros
_PRODUCT_FIELDS = {L: field_for((1, L), (L, 1)) for L in (4, 5, 12, 15, 60)}


@st.composite
def operand_pairs(draw):
    """A field, a dense scalar and a sparse one (at most two nonzero
    coefficients)."""
    ctx = _PRODUCT_FIELDS[draw(st.sampled_from(sorted(_PRODUCT_FIELDS)))]
    d = ctx.degree

    def coefficient():
        return Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 12)))

    dense = [coefficient() for _ in range(d)]
    sparse = [Fraction(0)] * d
    for k in draw(st.sets(st.integers(0, d - 1), max_size=2)):
        sparse[k] = coefficient()
    return ctx, ctx.scalar(dense), ctx.scalar(sparse)


def _schoolbook_rem(ctx, a, b):
    # independent route: sympy's remainder of the unreduced product
    import sympy
    x = sympy.Symbol("x")

    def poly(coeffs):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(coeffs)], x, domain="QQ")

    r = sympy.rem(poly(a.coeffs) * poly(b.coeffs), poly(ctx.minpoly))
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(r.all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (ctx.degree - len(coeffs)))


@given(operand_pairs())
def test_sparse_products_match_sympy(pair):
    ctx, dense, sparse = pair
    for a, b in ((dense, sparse), (sparse, dense), (dense, dense), (dense, ctx.theta)):
        assert (a * b).coeffs == _schoolbook_rem(ctx, a, b)
