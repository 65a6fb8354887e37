"""Parabolic closure: the smallest parabolic subgroup containing a given set.

Every parabolic subgroup is the stabilizer of a point of the Tits cone U, and
an intersection of parabolics is parabolic (arXiv math/0512408), so the
closure Pc(X) is the stabilizer of a generic point of Fix(X) ∩ U, where
Fix(X) is the space of dual points fixed by every element of X.  A point is
fixed by x iff it vanishes on im(x - 1), so Fix(X) is the annihilator of
A = sum of the im(x - 1), x in X; one exact elimination gives both bases.

The candidate scan (scan_closure) reads each w's least parabolic
w W_{I_w} w^{-1} holding X off A, and stops at the first w whose |I_w| is the
floor dim A: that hit is Pc(X).  pc scans a finite group to its end, where
the floor is always reached, so it reports the ShortLex-least (w, I) naming
the closure; past MAX_CANDIDATES it falls back to the walks below.  A system
whose cone is not classified is scanned within the query's radius.

Any other system has a classified cone (titscone.ConeComponent: finite,
affine and compact hyperbolic components), and pc certifies the closure with
walks alone, in the presentation (rep, gens) they end at:

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
"""

from __future__ import annotations

from enum import Enum
from itertools import count
from math import inf, prod

from .coxgroup import CoxeterSystem, GroupElement
from .errors import (CandidateTableTooLarge, InvalidQuery, InvariantViolation, MixedSystems,
                     require_count, require_instance, require_iterable)
from .parabolic import Parabolic, _intersect_stabilizer, make
from .titscone import DualPoint, cone_components, stabilizer

# About 5x the 2050 parabolics of hyperbolic_334's scan at radius 12.  The
# scan holds no table, but the BFS it walks keeps its layers and grows by a
# factor of 1.4-1.6 per length in the hyperbolic groups.
MAX_CANDIDATES = 10000


class ClosureStatus(Enum):
    EXACT = "exact"
    RADIUS_LIMITED = "radius-limited"


class ClosureQuery:
    """A set of group elements and a radius, which bounds only the cost of
    the candidate scan of a system whose cone is not classified: the scan
    tries the elements w with |w| <= radius."""

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
    """A closure and how far to trust it: status is EXACT when the closure
    is certified, a parabolic containing X that fixes all of Fix(X) (as a
    scan's hit on its floor does) or the whole group when Fix(X) meets the
    cone only in 0, and RADIUS_LIMITED for a scan's hit above its floor, a
    containing parabolic of least rank within the radius."""

    __slots__ = ("closure", "status")

    def __init__(self, closure: Parabolic, status: ClosureStatus):
        self.closure = closure
        self.status = status

    def __repr__(self):
        return f"ClosureResult({self.closure!r}, {self.status.value})"


def _candidates(system: CoxeterSystem, radius, vectors):
    """The elements w of length <= radius, up to the end of a finite group,
    lazily in (length, word) order, each with I_w: the s with (w^{-1} a)_s
    nonzero for some a in vectors, a basis of A.  The images w^{-1}(a) are
    carried down the BFS, (w s)^{-1} = s w^{-1}, keeping one layer.  Each
    layer is counted as it is reached in the (w, I) parabolics the scan
    covers, w coset-minimal and I nonempty, and CandidateTableTooLarge is
    raised once they pass MAX_CANDIDATES, before the layer is yielded."""
    n = system.rank
    listed = 0
    images = {(): tuple(vectors)}
    for length in count():
        if length > radius:
            return
        layers, closed = system.elements_up_to(length)
        # w heads a candidate for each nonempty I missing its right descents
        listed += sum((1 << (n - len(w.right_descents))) - 1 for w in layers[length])
        if listed > MAX_CANDIDATES:
            raise CandidateTableTooLarge(
                f"the closure candidate scan lists more than {MAX_CANDIDATES} "
                f"parabolics by length {length} (radius {radius})")
        previous, images = images, {}
        for w in layers[length]:
            image = previous[w.word[:-1]]
            if w.word:
                image = tuple(system._apply_gen_vec(w.word[-1], a) for a in image)
            images[w.word] = image
            yield w, [s for s in range(n) if any(a[s] for a in image)]
        if closed:
            return


def _fixed_space(elements) -> tuple[list[list], list[tuple]]:
    """Bases (rows, basis) of A and of Fix(X), in simple-root and pairing
    coordinates: the pivot rows and the null space of the rows of M_g^T - I
    stacked over g in X.  Row t of M_g^T - I is g(alpha_t) - alpha_t, and f
    is fixed by g iff <f, g(alpha_t)> = f_t for every t (g and g^{-1} fix
    the same points).

    Division-free, cross-multiplying elimination.  The pivot rows stay in
    reduced form: a new row r is cleared at each pivot column c by
    r <- p[c]*r - r[c]*p, and its own pivot column is then cleared from the
    earlier pivot rows the same way.  Returns the n pivot rows and [] as
    soon as the rank reaches n, when only 0 is fixed.
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
                return [row for _, row in pivots], []
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
    return [row for _, row in pivots], basis


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
    """Parabolic closure of the query set: a finite group's scan, else the
    certified walks when the system's cone is classified, else the scan
    within the radius."""
    system = query.system
    elements = query.elements
    if all(g.is_identity for g in elements):
        return ClosureResult(make(system.identity, frozenset()), ClosureStatus.EXACT)
    rows, basis = _fixed_space(elements)
    if not basis:
        return ClosureResult(make(system.identity, frozenset(range(system.rank))),
                             ClosureStatus.EXACT)
    finite = all(c.kind == "finite" for c in cone_components(system))
    if finite:
        try:
            return _scan(elements, rows, inf)
        except CandidateTableTooLarge:
            pass
    certified = _certify(system, basis)
    if certified is None:
        return _scan(elements, rows, query.radius)
    if finite and not all(certified.contains_element(g) for g in elements):
        raise InvariantViolation("the certified closure misses a query element")
    return ClosureResult(certified, ClosureStatus.EXACT)


def scan_closure(query: ClosureQuery) -> ClosureResult:
    """Parabolic closure by the candidate scan alone, within the query's
    radius: exact when its hit is on the floor n - dim Fix(X).

    X lies in w W_I w^{-1} iff X fixes w(omega_s) for every s not in I, as
    W_I is the intersection of the W_{S - {s}}, and <w(omega_s), a> =
    (w^{-1} a)_s: so iff w^{-1} maps A into span{alpha_s : s in I}, and I_w
    is the union of the supports of w^{-1}(a).  The first w of least |I_w|
    has no right descent in I_w, else w s would be shorter with the same
    subset: (w, I_w) is the first containing (w, I), w coset-minimal, in
    (rank, length, word, subset) order.  Each w W_I w^{-1} containing X fixes
    a space of dimension n - |I| inside Fix(X), so no |I_w| is below the
    floor.

    A hit P on the floor is Pc(X): P holds X, so Fix(P) lies in Fix(X), and
    both have dimension n - floor, so they are equal.  Each parabolic holding
    X is the stabilizer of a point of Fix(X), which P fixes, so P lies in it.
    """
    return _scan(query.elements, _fixed_space(query.elements)[0], query.radius)


def _scan(elements, rows, radius) -> ClosureResult:
    """The scan of scan_closure for the pivot rows of elements' A."""
    best = None
    for w, I in _candidates(elements[0].system, radius, rows):
        if best is None or len(I) < len(best[1]):
            best = (w, I)
            if len(I) == len(rows):
                break
    closure = make(*best)
    if not all(closure.contains_element(g) for g in elements):
        raise InvariantViolation("closure does not contain the query elements")
    exact = len(best[1]) == len(rows)
    return ClosureResult(closure, ClosureStatus.EXACT if exact else ClosureStatus.RADIUS_LIMITED)
