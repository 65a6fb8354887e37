"""Parabolic closure: the smallest parabolic subgroup containing a given set.

Every parabolic subgroup is the stabilizer of a point of the Tits cone U, and
an intersection of parabolics is parabolic (arXiv math/0512408), so the
closure Pc(X) is the stabilizer of a generic point of Fix(X) ∩ U, where
Fix(X) is the space of dual points fixed by every element of X.  pc computes
a basis of Fix(X) exactly and, for a system whose cone is classified
(titscone.ConeComponent: finite, affine and compact hyperbolic components),
certifies the closure with walks alone:

* On each infinite component, either Fix(X) meets the cone only in 0, and
  the closure contains that whole component, or an exact point of the cone
  in Fix(X) is found.  Their sum p gives Stab(p) = w W_I w^{-1}, which
  contains X, and W_I is finite on the components where p is nonzero.
* Rank descent: while some root w(alpha_s), s in I, pairs nonzero with a
  basis vector v of Fix(X), replace the subgroup by its intersection with
  Stab(v), found by a walk in W_I.  The rank drops each round.
* The result fixes all of Fix(X), so it lies inside every parabolic
  containing X (each one is the stabilizer of a point of Fix(X)): it is the
  closure, and its status is exact.  Fix(X) = {0} certifies the whole group
  in any Coxeter group.

Infinite groups report the presentation (rep, gens) the walks end at.  A
finite group reports the ShortLex-least (w, I) naming its closure: a search
of the BFS layers from the closure's base point, up to the length of the
walked presentation, which needs no candidate table.

The candidate scan remains the fallback for systems whose cone is not
classified: each w, |w| <= the radius, has one least w W_{I_w} w^{-1} holding
X, read off n weight points, and the first w of least |I_w| is the hit.  Every
parabolic containing X contains Pc(X), so that hit is the closure whenever
the closure lies within the radius: exact at rank n - dim Fix(X) or for a
finite group scanned exhaustively, and otherwise radius-limited.
"""

from __future__ import annotations

from enum import Enum
from math import prod

from .coxgroup import CoxeterSystem, GroupElement
from .errors import (CandidateTableTooLarge, InvalidQuery, InvariantViolation, MixedSystems,
                     require_count, require_instance, require_iterable)
from .parabolic import Parabolic, _intersect_stabilizer, make
from .titscone import DualPoint, cone_components, stabilizer

# About 5x the largest table the tests, the verify suites and the benchmark
# build (2050 candidates: hyperbolic_334 at radius 12).  A table at the cap
# holds some tens of MB; the BFS grows by a factor of 1.4-1.6 per length in
# the hyperbolic groups, so an unbounded radius would exhaust memory.
MAX_CANDIDATES = 10000


class ClosureStatus(Enum):
    EXACT = "exact"
    RADIUS_LIMITED = "radius-limited"


class ClosureQuery:
    """A set of group elements and a radius.  The radius bounds only the
    candidate scan of a system whose cone is not classified: the scan tries
    the elements w with |w| <= radius."""

    __slots__ = ("elements", "radius")

    def __init__(self, elements, radius: int):
        elements = tuple(require_instance(g, GroupElement, "closure query element")
                         for g in require_iterable(elements, "closure query elements"))
        if not elements:
            raise InvalidQuery("closure query needs at least one element")
        if any(g.system is not elements[0].system for g in elements):
            raise MixedSystems("query elements belong to different systems")
        self.elements = elements
        self.radius = require_count(radius, "radius")

    @property
    def system(self) -> CoxeterSystem:
        return self.elements[0].system


class ClosureResult:
    """A closure and how far to trust it.

    status is EXACT when the closure is certified: a parabolic containing X
    that fixes all of Fix(X) (the scan's hit at rank n - dim Fix(X) is one),
    the whole group when Fix(X) meets the cone only in 0, or the hit of an
    exhaustive scan.  It is RADIUS_LIMITED otherwise: the scan's first hit,
    a containing parabolic of least rank within the radius.
    """

    __slots__ = ("closure", "status")

    def __init__(self, closure: Parabolic, status: ClosureStatus):
        self.closure = closure
        self.status = status

    def __repr__(self):
        return f"ClosureResult({self.closure!r}, {self.status.value})"


def _candidates(system: CoxeterSystem, radius: int):
    """The elements w of length <= radius with their weight points, as
    (iterator of (w, weights), closed) in (length, word) order, a radius past
    the length L of a finite group's longest element clamped to L.  weights[s]
    holds the pairings of w(omega_s), omega_s = fundamental_point(W, S - {s}):
    <omega_s, w^{-1}(alpha_t)>, coordinate s of the root w^{-1}(alpha_t).
    Those roots are carried down the BFS as the iterator is read, (w s)^{-1} =
    s w^{-1} taking one generator step per root of the parent's.  The BFS is
    counted layer by layer in the (w, I) parabolics the scan covers, w
    coset-minimal and I nonempty, and CandidateTableTooLarge is raised as soon
    as they pass MAX_CANDIDATES, before the next layer or any weight is built.
    """
    n = system.rank
    count = 0
    for length in range(radius + 1):
        layers, closed = system.elements_up_to(length)
        # w heads a candidate for each nonempty I missing its right descents
        count += sum((1 << (n - len(w.right_descents))) - 1 for w in layers[length])
        if count > MAX_CANDIDATES:
            raise CandidateTableTooLarge(
                f"the closure candidate scan lists more than {MAX_CANDIDATES} "
                f"parabolics by length {length} (radius {radius})")
        if closed:
            break

    def weighted():
        roots = {(): system._identity_matrix}
        for w in (g for layer in layers for g in layer):
            if w.word:
                roots[w.word] = tuple(system._apply_gen_vec(w.word[-1], r)
                                      for r in roots[w.word[:-1]])
            yield w, tuple(zip(*roots[w.word]))

    return weighted(), closed


def _fixed_space(elements) -> list[tuple]:
    """A basis of Fix(X) in pairing coordinates: the null space of the rows
    of M_g^T - I stacked over g in X.  Row t of M_g^T is the root g(alpha_t),
    and f is fixed by g iff <f, g(alpha_t)> = f_t for every t (g and g^{-1}
    fix the same points).

    Division-free, cross-multiplying elimination.  The pivot rows stay in
    reduced form: a new row r is cleared at each pivot column c by
    r <- p[c]*r - r[c]*p, and its own pivot column is then cleared from the
    earlier pivot rows the same way.  Returns [] as soon as the rank reaches
    n, when only 0 is fixed.
    """
    system = elements[0].system
    n = system.rank
    field = system.field
    pivots: list[tuple[int, list]] = []
    for g in elements:
        M = g.matrix
        for t in range(n):
            row = [r[t] for r in M]
            row[t] = row[t] - field.one
            for c, prow in pivots:
                b = row[c]
                if b:
                    a = prow[c]
                    row = [a * x - b * y for x, y in zip(row, prow)]
            lead = next((j for j, x in enumerate(row) if x), None)
            if lead is None:
                continue
            a = row[lead]
            pivots = [(c, [a * x - prow[lead] * y for x, y in zip(prow, row)]
                       if prow[lead] else prow)
                      for c, prow in pivots]
            pivots.append((lead, row))
            if len(pivots) == n:
                return []
    # free column j: v_j = prod_i a_i and v_{c_i} = -p_i[j] * prod_{k != i} a_k
    # for the pivot rows p_i with pivots a_i = p_i[c_i]
    leads = [prow[c] for c, prow in pivots]
    columns = {c for c, _ in pivots}
    basis = []
    for j in range(n):
        if j in columns:
            continue
        v = [field.zero] * n
        v[j] = prod(leads, start=field.one)
        for i, (c, prow) in enumerate(pivots):
            v[c] = -prow[j] * prod(leads[:i] + leads[i + 1:], start=field.one)
        basis.append(tuple(v))
    return basis


def _certify(system: CoxeterSystem, basis) -> Parabolic | None:
    """The closure of a query with the nonzero fixed space span(basis), by a
    cone point and rank descent; None when the system's cone is not
    classified.

    On a component where Fix(X) meets the cone only in 0 the closure contains
    the whole component, so the basis is projected off it; the sum p of the
    cone points found on the others starts the walk.  Every W_I met after
    that walk is finite away from the dropped components, and the projected
    basis vanishes on those, so every walk ends.
    """
    components = cone_components(system)
    if any(c.kind is None for c in components):
        return None
    zero = system.field.zero
    p = (zero,) * system.rank
    kept = set()
    for component in components:
        point = component.cone_point(basis)
        if point is not None:
            p = tuple(a + b for a, b in zip(p, point))
            kept.update(component.gens)
    projected = [tuple(x if s in kept else zero for s, x in enumerate(v)) for v in basis]
    closure = stabilizer(DualPoint(system, p))
    for v in projected:
        closure = _intersect_stabilizer(closure, v, either_sign=True)
    # the certificate: the reflections in the roots rep(alpha_s) generating
    # the closure fix every projected basis vector
    if any(p for v in projected
           for s, p in enumerate(closure.rep.root_pairings(v)) if s in closure.gens):
        raise InvariantViolation("rank descent left a fixed point unfixed")
    # letters of the components that J = closure.gens misses commute with W_J
    touched = {s for c in components if closure.gens.intersection(c.gens) for s in c.gens}
    word = tuple(s for s in closure.rep.word if s in touched)
    if word != closure.rep.word:
        closure = make(system.normalize(word), closure.gens)
    return closure


def pc(query: ClosureQuery) -> ClosureResult:
    """Parabolic closure of the query set: certified when the system's cone
    is classified, otherwise the scan within the radius."""
    system = query.system
    elements = query.elements
    if all(g.is_identity for g in elements):
        return ClosureResult(make(system.identity, frozenset()), ClosureStatus.EXACT)
    basis = _fixed_space(elements)
    if not basis:
        return ClosureResult(make(system.identity, frozenset(range(system.rank))),
                             ClosureStatus.EXACT)
    certified = _certify(system, basis)
    if certified is None:
        return scan_closure(query)
    if certified.rank < system.rank and all(c.kind == "finite" for c in cone_components(system)):
        certified = _least_presentation(certified)
        if not all(certified.contains_element(g) for g in elements):
            raise InvariantViolation("the certified closure misses a query element")
    return ClosureResult(certified, ClosureStatus.EXACT)


def _least_presentation(closure: Parabolic) -> Parabolic:
    """The ShortLex-least (w, I) naming a finite group's closure P, |w| <= |rep|
    as P's (rep, gens) names it; P itself past MAX_CANDIDATES elements.  (w, I)
    names P when I, the generators pairing to 0 with w^{-1}(b), b P's base
    point, has P's rank: w W_I w^{-1} then lies in P, and a parabolic of P's
    rank in P is P.  The first such w is shortest in w W_I, as a shorter
    element of w W_I names P with the same I."""
    system = closure.system
    points = {(): closure.base_point.coords}
    for length in range(closure.rep.length + 1):
        if len(points) > MAX_CANDIDATES:
            break
        for w in system.elements_up_to(length)[0][length]:
            if w.word:
                points[w.word] = system._dual_image(w.word[-1], points[w.word[:-1]])
            I = [s for s, c in enumerate(points[w.word]) if c.is_zero()]
            if len(I) == closure.rank:
                return make(w, I)
    return closure


def scan_closure(query: ClosureQuery) -> ClosureResult:
    """Parabolic closure by the candidate scan alone, within the query's
    radius: exact when the scan was exhaustive or its hit is on the floor.

    X lies in w W_I w^{-1} iff X fixes w(omega_s) for every s not in I, as W_I
    is the intersection of the W_{S - {s}}: so iff I holds I_w, the s whose
    w(omega_s) some x in X moves.  The first w of least |I_w| has no right
    descent s in I_w, else w s would be shorter with the same subset, so
    (w, I_w) is the first containing (w, I), w coset-minimal, in (rank,
    length, word, subset) order.  Each w W_I w^{-1} containing X fixes a space
    of dimension n - |I| inside Fix(X), so no w goes below the floor
    n - dim Fix(X), and the scan stops at the first w on it.

    A hit P on the floor is Pc(X): P holds X, so Fix(P) lies in Fix(X), and
    both have dimension n - floor, so they are equal.  Each parabolic holding
    X is the stabilizer of a point of Fix(X), which P fixes, so P lies in it.
    """
    system = query.system
    elements = query.elements
    candidates, closed = _candidates(system, query.radius)
    floor = system.rank - len(_fixed_space(elements))
    best = None
    for w, weights in candidates:
        I = [s for s, point in enumerate(weights)
             if not all(g.fixes_dual_coords(point) for g in elements)]
        if best is None or len(I) < len(best[1]):
            best = (w, I)
            if len(I) == floor:
                break
    closure = make(*best)
    if not all(closure.contains_element(g) for g in elements):
        raise InvariantViolation("closure does not contain the query elements")
    exact = closed or len(best[1]) == floor
    return ClosureResult(closure, ClosureStatus.EXACT if exact else ClosureStatus.RADIUS_LIMITED)
