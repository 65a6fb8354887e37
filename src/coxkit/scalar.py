"""Exact arithmetic in the real field Q(theta), theta = 2*cos(pi/L).

A Coxeter matrix with finite labels m >= 3 needs the values cos(pi/m)
exactly.  Taking L = lcm of those labels, every such cosine lives in the
field generated by theta = 2*cos(pi/L), because 2*cos(pi/m) = D_{L/m}(theta)
where D_k is the integer polynomial with D_k(2*cos x) = 2*cos(k*x).

The minimal polynomial of theta comes in closed form, with integer arithmetic
only: the cyclotomic polynomial Phi_{2L}(z), obtained by exact division of
z^{2L} - 1 by Phi_d for every proper divisor d of 2L, is palindromic, and
folding it with z^k + z^-k = D_k(z + 1/z) gives a polynomial in
theta = z + 1/z for z = exp(i*pi/L).  Nothing is factored.

Scalars are stored as coefficient vectors over Fraction, reduced modulo the
minimal polynomial of theta, so equality is coefficient equality.  The ring
operations are addition, subtraction and multiplication; there is no
division.  Signs are decided exactly: the scalar's polynomial is evaluated
with rational interval arithmetic on a shrinking isolating interval for
theta, which starts as (2 - 10/L^2, 2): the conjugates of theta are known in
closed form too.  Floating point is never consulted.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import (DimensionMismatch, FieldTooLarge, IncompatibleOrder, InvalidMatrix,
                     InvariantViolation, IrrationalScalar, MixedFields, require_instance,
                     require_iterable)

INFINITY = math.inf  # Coxeter matrix entry for an unbounded product order

# The largest field degree build_field accepts.  A product of two scalars
# costs O(degree^2) Fraction operations, and building the field grows faster
# still: on a 2-vCPU Xeon VM with Python 3.11, L = 2520 (every label up to
# 10, degree 576) builds in 4 s, labels 11, 13 and 17 (L = 2431, degree 960)
# in 14 s, and a prime label near 10^6 had not finished after 60 s.
MAX_FIELD_DEGREE = 600

_F0 = Fraction(0)
_F1 = Fraction(1)
_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# dense polynomials over Fraction, coefficient lists ordered low to high


def _strip(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_eval(p, x: Fraction) -> Fraction:
    acc = _F0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_interval_eval(p, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Horner evaluation of p over the interval [lo, hi], rational endpoints."""
    vlo = vhi = _F0
    for c in reversed(p):
        cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(cands) + c, max(cands) + c
    return vlo, vhi


def double_cosine_poly(k: int) -> list[int]:
    """Integer coefficients of D_k, the degree-k polynomial with
    D_k(2*cos x) = 2*cos(k*x): the last of double_cosine_polys(k)."""
    for dk in double_cosine_polys(k):
        pass
    return dk


def double_cosine_polys(m: int):
    """D_0, ..., D_m in order, each built once from the two before it by
    D_{k+1} = x*D_k - D_{k-1}."""
    prev, cur = [2], [0, 1]
    yield prev
    for _ in range(m):
        yield cur
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt


# ---------------------------------------------------------------------------
# Coxeter matrix validation


def validate_matrix(matrix) -> tuple[tuple[int | float, ...], ...]:
    """Check the defining conditions of a Coxeter matrix and return it as a
    tuple of tuples with entries int or INFINITY.  Raises InvalidMatrix, also
    for a matrix or a row that cannot be iterated over."""
    try:
        matrix = [tuple(row) for row in matrix]
    except TypeError:
        raise InvalidMatrix(f"matrix {matrix!r} is not a sequence of rows") from None
    rows = []
    n = len(matrix)
    if n == 0:
        raise InvalidMatrix("matrix must have positive rank")
    for row in matrix:
        if len(row) != n:
            raise InvalidMatrix("matrix must be square")
        out = []
        for e in row:
            if e == INFINITY:
                out.append(INFINITY)
            elif isinstance(e, int) and not isinstance(e, bool):
                out.append(e)
            else:
                raise InvalidMatrix(f"entry {e!r} is not a positive integer or inf")
        rows.append(tuple(out))
    for i in range(n):
        if rows[i][i] != 1:
            raise InvalidMatrix("diagonal entries must equal 1")
        for j in range(n):
            if rows[i][j] != rows[j][i]:
                raise InvalidMatrix("matrix must be symmetric")
            if i != j and rows[i][j] != INFINITY and rows[i][j] < 2:
                raise InvalidMatrix("off-diagonal entries must be >= 2 or inf")
    return tuple(rows)


def _cosine_order_lcm(matrix) -> int:
    L = 1
    for i, row in enumerate(matrix):
        for j, e in enumerate(row):
            if i < j and e != INFINITY and e >= 3:
                L = math.lcm(L, e)
    return L


# ---------------------------------------------------------------------------
# field construction


def _divide_monic(p: list[int], q: list[int]) -> list[int]:
    """Quotient of the integer polynomial p by the monic q, which divides it."""
    p = list(p)
    quot = [0] * (len(p) - len(q) + 1)
    for k in reversed(range(len(quot))):
        c = quot[k] = p[k + len(q) - 1]
        for i, b in enumerate(q):
            p[k + i] -= c * b
    if any(p):
        raise InvariantViolation("cyclotomic division left a remainder")
    return quot


def _cyclotomic(n: int) -> list[int]:
    """Integer coefficients of Phi_n: z^d - 1 divided exactly by Phi_e for
    every proper divisor e of d, for each divisor d of n in increasing order."""
    phi: dict[int, list[int]] = {}
    for d in range(1, n + 1):
        if n % d == 0:
            p = [-1] + [0] * (d - 1) + [1]
            for e, q in phi.items():
                if d % e == 0:
                    p = _divide_monic(p, q)
            phi[d] = p
    return phi[n]


def _theta_minpoly(L: int) -> list[int]:
    """Integer minimal polynomial of theta = 2*cos(pi/L), monic, in closed
    form (Watkins and Zeitlin, Amer. Math. Monthly 100, 1993).

    theta = z + 1/z for z = exp(i*pi/L), a root of Phi_{2L}.  For L >= 2 that
    polynomial is palindromic of degree 2m, so z^-m * Phi_{2L}(z) = c_m + the
    sum over k of c_{m+k} * (z^k + z^-k), and z^k + z^-k = D_k(theta).
    L = 1 gives theta = -2.
    """
    if L == 1:
        return [2, 1]
    phi = _cyclotomic(2 * L)
    m = len(phi) // 2
    poly = [phi[m]] + [0] * m
    for k, dk in enumerate(double_cosine_polys(m)):
        if k and phi[m + k]:
            for i, c in enumerate(dk):
                poly[i] += phi[m + k] * c
    return poly


def _isolating_interval(minpoly, L: int) -> tuple[Fraction, Fraction]:
    """An interval (lo, hi) holding theta = 2*cos(pi/L) and no other root of
    its minimal polynomial, with rational endpoints.

    The roots are 2*cos(k*pi/L) for the odd k prime to L, 0 < k < L (Watkins
    and Zeitlin), so theta is the largest and, for L >= 4, the next one is at
    most 2*cos(3*pi/L).  From 1 - x^2/2 <= cos x <= 1 - x^2/2 + x^4/24:

    * theta >= 2 - pi^2/L^2 > 2 - 10/L^2, as pi^2 < 10, and theta < 2;
    * 2*cos(3*pi/L) <= 2 - 9*pi^2/L^2 + 27*pi^4/(4*L^4), which lies below
      2 - 10/L^2 whenever L^2 > 27*pi^4 / (4*(9*pi^2 - 10)), about 8.3, so
      for every L >= 3.

    So (2 - 10/L^2, 2) isolates theta.  The rational fields (L <= 3) take
    (-3, 3).  The minimal polynomial is checked, exactly, to be nonzero at
    both ends and to change sign across the interval.
    """
    if len(minpoly) <= 2:
        return Fraction(-3), Fraction(3)
    lo, hi = 2 - Fraction(10, L * L), Fraction(2)
    vlo, vhi = _poly_eval(minpoly, lo), _poly_eval(minpoly, hi)
    if not vlo or not vhi or (vlo < 0) == (vhi < 0):
        raise InvariantViolation("minimal polynomial does not change sign "
                                 "across the isolating interval of theta")
    return lo, hi


def _totient(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


class FieldContext:
    """Arithmetic context for Q(theta), theta = 2*cos(pi/L).

    Immutable after construction apart from an internal isolating-interval
    cache that only ever shrinks (refinements preserve the contained root,
    so concurrent readers always see a valid enclosure).
    """

    __slots__ = ("L", "minpoly", "degree", "_reductions", "_iso", "_zero", "_one",
                 "_theta", "_cos_cache")

    def __init__(self, L: int, minpoly: tuple[Fraction, ...],
                 iso_interval: tuple[Fraction, Fraction]):
        self.L = L
        self.minpoly = minpoly
        self.degree = len(minpoly) - 1
        d = self.degree
        # reductions of theta^d .. theta^(2d-2), each kept as the (i, c) pairs
        # of its nonzero coefficients: half of them are zero for L = 12 or 60
        powers = [tuple(-c for c in minpoly[:-1])]
        for _ in range(d - 2):
            shifted = [_F0] + list(powers[-1])
            lead = shifted.pop()
            powers.append(tuple(shifted[i] + lead * powers[0][i] for i in range(d)))
        self._reductions = tuple(tuple((i, c) for i, c in enumerate(p) if c) for p in powers)
        self._iso = iso_interval
        self._zero = FieldScalar(self, (_F0,) * d)
        self._one = FieldScalar(self, (_F1,) + (_F0,) * (d - 1))
        if d >= 2:
            self._theta = FieldScalar(self, (_F0, _F1) + (_F0,) * (d - 2))
        else:
            self._theta = FieldScalar(self, (-minpoly[0],))
        self._cos_cache: dict = {}

    @property
    def zero(self) -> "FieldScalar":
        return self._zero

    @property
    def one(self) -> "FieldScalar":
        return self._one

    @property
    def theta(self) -> "FieldScalar":
        return self._theta

    def coerce(self, value) -> "FieldScalar":
        """value as an element of this field: a scalar of this context, an
        int or a Fraction.  Anything else, floats and bools included, raises
        MixedFields."""
        if isinstance(value, FieldScalar):
            if value.ctx is not self:
                raise MixedFields("scalars belong to different field contexts")
            return value
        return self.from_rational(value)

    def from_rational(self, q) -> "FieldScalar":
        return self.scalar((q,))

    def scalar(self, coeffs) -> "FieldScalar":
        """sum c_i theta^i for int or Fraction c_i; anything else, a bool
        included, raises MixedFields, and coefficients that cannot be
        iterated over raise InvalidQuery."""
        cs = list(require_iterable(coeffs, "coefficients"))
        if not all(isinstance(c, (int, Fraction)) and not isinstance(c, bool) for c in cs):
            raise MixedFields(f"{cs!r}: every coefficient must be an int or a Fraction")
        cs = [Fraction(c) for c in cs]
        if len(cs) > self.degree:
            raise DimensionMismatch("coefficient vector longer than the field degree")
        cs += [_F0] * (self.degree - len(cs))
        return FieldScalar(self, tuple(cs))

    def evaluate_int_poly(self, coeffs) -> "FieldScalar":
        """Value of an integer polynomial at theta."""
        acc = self._zero
        for c in reversed(coeffs):
            acc = acc * self._theta + self.from_rational(c)
        return acc

    def _refine_iso(self) -> None:
        """Halve the cached isolating interval around theta."""
        lo, hi = self._iso
        mid = (lo + hi) / 2
        vmid = _poly_eval(self.minpoly, mid)
        if not vmid:
            # only possible for a degree-1 field, where signs never need this
            raise InvariantViolation("bisection point hit the root exactly")
        vlo = _poly_eval(self.minpoly, lo)
        if (vlo < 0) != (vmid < 0):
            self._iso = (lo, mid)
        else:
            self._iso = (mid, hi)

    def __repr__(self):
        return f"FieldContext(L={self.L}, degree={self.degree})"


@functools.total_ordering
class FieldScalar:
    """An element of Q(theta), stored as the coefficient tuple of its
    canonical representative modulo the minimal polynomial of theta.  The
    order is the real one: <=, > and >= derive from < and ==."""

    __slots__ = ("ctx", "coeffs", "_sign")

    def __init__(self, ctx: FieldContext, coeffs: tuple[Fraction, ...]):
        self.ctx = ctx
        self.coeffs = coeffs
        self._sign = None

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldScalar):
            if other.ctx is not self.ctx:
                raise MixedFields("scalars belong to different field contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldScalar(self.ctx, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldScalar(self.ctx, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        """-self, carrying over its cached sign, negated."""
        neg = FieldScalar(self.ctx, tuple(-a for a in self.coeffs))
        neg._sign = self._sign and -self._sign
        return neg

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        d = self.ctx.degree
        if d == 1:
            return FieldScalar(self.ctx, (a[0] * b[0],))
        # the nonzero coefficients of b, listed once: a product by theta (or
        # by any sparse scalar) costs O(d) instead of O(d^2)
        nonzero = [(j, bj) for j, bj in enumerate(b) if bj]
        conv = [_F0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in nonzero:
                    conv[i + j] += ai * bj
        # theta^k, k >= d, reduces through the nonzero entries of its table row
        res = conv[:d]
        for c, reduction in zip(conv[d:], self.ctx._reductions):
            if c:
                for i, r in reduction:
                    res[i] += c * r
        return FieldScalar(self.ctx, tuple(res))

    __rmul__ = __mul__

    # -- predicates and order -----------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise IrrationalScalar("scalar is irrational")
        return self.coeffs[0]

    def sign(self) -> int:
        """Exact sign (-1, 0, +1), decided by rational interval arithmetic on
        a shrinking isolating interval for theta, and cached on the scalar;
        a negation inherits the cached sign, negated."""
        if self._sign is not None:
            return self._sign
        if self.is_zero():
            self._sign = 0
            return 0
        if self.is_rational():
            s = 1 if self.coeffs[0] > 0 else -1
            self._sign = s
            return s
        ctx = self.ctx
        p = _strip(list(self.coeffs))
        while True:
            lo, hi = ctx._iso
            vlo, vhi = _poly_interval_eval(p, lo, hi)
            if vlo > 0:
                self._sign = 1
                return 1
            if vhi < 0:
                self._sign = -1
                return -1
            # p is nonzero of degree < deg(minpoly), so p(theta) != 0 and the
            # enclosure eventually excludes zero
            ctx._refine_iso()

    def __eq__(self, other):
        if isinstance(other, FieldScalar):
            return self.ctx is other.ctx and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        # a rational scalar equals its int/Fraction value, so hashes like it
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __lt__(self, other):
        # the walks' sign test, q[s] < 0: no coercion, subtraction or fresh sign
        if type(other) is int and other == 0:
            return self.sign() < 0
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __bool__(self):
        return not self.is_zero()

    # -- display --------------------------------------------------------------

    def __str__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
                continue
            power = "θ" if k == 1 else f"θ^{k}"
            if c == 1:
                term = power
            elif c == -1:
                term = f"-{power}"
            else:
                term = f"{c}*{power}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"FieldScalar({self})"


def build_field(coxeter_matrix) -> FieldContext:
    """Field context for the given Coxeter matrix.

    L is the lcm of the finite labels >= 3 (L = 1 when there are none).  The
    minimal polynomial of theta = 2*cos(pi/L) is the cyclotomic polynomial
    Phi_{2L} folded into x = z + 1/z, built with integer arithmetic only;
    theta is its largest real root, isolated in closed form
    (_isolating_interval).

    The degree of that field is phi(2L)/2 for L >= 3; above MAX_FIELD_DEGREE
    it raises FieldTooLarge before anything is built.  phi(k) >= sqrt(k/2)
    for every k, so the degree is at least sqrt(L)/2, and an L above
    4 * MAX_FIELD_DEGREE^2 is rejected without factoring 2L.
    """
    matrix = validate_matrix(coxeter_matrix)
    L = _cosine_order_lcm(matrix)
    if L > 4 * MAX_FIELD_DEGREE ** 2:
        raise FieldTooLarge(f"labels with lcm {L} need a field of degree above "
                            f"{MAX_FIELD_DEGREE}")
    expected = _totient(2 * L) // 2 if L >= 3 else 1
    if expected > MAX_FIELD_DEGREE:
        raise FieldTooLarge(f"labels with lcm {L} need a field of degree {expected}, "
                            f"above {MAX_FIELD_DEGREE}")
    minpoly = tuple(Fraction(c) for c in _theta_minpoly(L))
    ctx = FieldContext(L, minpoly, _isolating_interval(minpoly, L))
    if ctx.degree != expected:
        raise InvariantViolation("minimal polynomial has unexpected degree")
    if not ctx.evaluate_int_poly(ctx.minpoly).is_zero():
        raise InvariantViolation("minimal polynomial does not vanish at theta")
    return ctx


def cos_pi_over(ctx: FieldContext, m) -> FieldScalar:
    """cos(pi/m) as an element of the field; m = INFINITY yields 1 (the
    caller negates it for the bilinear form of an unbounded label)."""
    require_instance(ctx, FieldContext, "field")
    if m == INFINITY:
        return ctx.one
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise IncompatibleOrder(f"label {m!r} is not a positive integer or inf")
    cached = ctx._cos_cache.get(m)
    if cached is not None:
        return cached
    if m == 1:
        value = -ctx.one
    elif m == 2:
        value = ctx.zero
    else:
        if ctx.L % m != 0:
            raise IncompatibleOrder(
                f"cos(pi/{m}) does not lie in the field for L = {ctx.L}")
        value = ctx.evaluate_int_poly(double_cosine_poly(ctx.L // m)) * _HALF
    ctx._cos_cache[m] = value
    return value
