"""Parabolic closure: the smallest parabolic subgroup containing a given set.

Every parabolic subgroup is the stabilizer of a point of the Tits cone U, so
the closure Pc(X) is the stabilizer of a generic point of Fix(X) ∩ U, where
Fix(X) is the space of dual points fixed by every element of X.  pc computes
a basis of Fix(X) exactly and walks a few combinations p of it to the
fundamental domain, p = w(f) with f in the face C_I.  It accepts the first p
whose stabilizer w W_I w^{-1} fixes every basis vector.  Such a stabilizer
contains X and lies inside every parabolic containing X (each one is the
stabilizer of a point of Fix(X)), so it is the closure, in any Coxeter
group: this is the certificate.  Fix(X) = {0} certifies the whole group.

The certified closure is reported as the first containing candidate of its
rank in the order of the candidate scan below, so its presentation
(rep, gens) does not depend on which point certified it.

Queries without a certificate fall back to the candidate scan: parabolics
(w, I), with w a coset-minimal representative of bounded length, in order of
increasing rank and length.  Containment of the query set in a candidate is
a cheap exact test: every query element must fix the candidate's base
point.  The running intersection of the containing candidates stabilizes at
the closure; for a finite group scanned exhaustively the result is exact,
and the first containing candidate already has minimal rank, which also
certifies the minimal-rank characterization of the closure.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, combinations
from math import prod

from .coxgroup import CoxeterSystem
from .errors import InvalidQuery, InvariantViolation, MixedSystems, StepCapExceeded
from .parabolic import Parabolic, intersect, make
from .titscone import DualPoint, fundamental_point, locate

# the points k^0 v_0 + k^1 v_1 + ... tried for a certificate, each also negated
_TRIAL_STEPS = (1, 2, 3)


class ClosureStatus(Enum):
    EXACT = "exact"
    RADIUS_LIMITED = "radius-limited"


class ClosureQuery:
    """A set of group elements and a length bound: the step cap of the
    certificate's walk and the radius of the candidate scan."""

    __slots__ = ("elements", "radius")

    def __init__(self, elements, radius: int):
        elements = tuple(elements)
        if not elements:
            raise InvalidQuery("closure query needs at least one element")
        system = elements[0].system
        for g in elements:
            if g.system is not system:
                raise MixedSystems("query elements belong to different systems")
        if radius < 0:
            raise InvalidQuery("radius must be nonnegative")
        self.elements = elements
        self.radius = radius

    @property
    def system(self) -> CoxeterSystem:
        return self.elements[0].system


class ClosureResult:
    """Closure with its audit trail.

    status is EXACT when the closure is certified (the stabilizer of a
    generic fixed point, or the whole group when only 0 is fixed) or when the
    fallback scan was exhaustive (the group is finite and the enumeration
    closed within the radius).  It is RADIUS_LIMITED when no certificate was
    found and the scan was not exhaustive: the result is then the
    intersection of the containing parabolics visible within the radius.
    refinements lists the candidates that strictly shrank the running
    intersection, starting from the whole group; a certified closure of
    rank below the group's is its single refinement.
    """

    __slots__ = ("closure", "status", "refinements")

    def __init__(self, closure: Parabolic, status: ClosureStatus, refinements):
        self.closure = closure
        self.status = status
        self.refinements = tuple(refinements)

    def __repr__(self):
        return (f"ClosureResult({self.closure!r}, {self.status.value}, "
                f"{len(self.refinements)} refinements)")


def _candidates(system: CoxeterSystem, radius: int):
    """Candidate parabolics (gens, w, base point coords) with w coset-minimal
    of length <= radius, in one block per rank, each block ordered by
    (length, word, subset).  Returns (blocks, closed); cached per system and
    radius."""
    cache = system.cache["closure_candidates"]
    hit = cache.get(radius)
    if hit is not None:
        return hit
    layers, closed = system.elements_up_to(radius)
    elements = [g for layer in layers for g in layer]
    n = system.rank
    blocks = []
    for size in range(n + 1):
        block = []
        for subset in combinations(range(n), size):
            I = frozenset(subset)
            point = fundamental_point(system, I)
            for w in elements:
                if w.right_descents & I:
                    continue
                block.append((len(w.word), w.word, subset, I, w,
                              w.act_dual_coords(point.coords)))
        block.sort(key=lambda item: item[:3])
        blocks.append(tuple(item[3:] for item in block))
    result = (tuple(blocks), closed)
    cache[radius] = result
    return result


def _fixed_space(elements) -> list[tuple]:
    """A basis of Fix(X) in pairing coordinates: the null space of the rows
    of D_g - I stacked over g in X, D_g the dual matrix of g.

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
        for t, drow in enumerate(g.dual_matrix):
            row = list(drow)
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


def _trial_points(basis):
    """The points sum_i k^i * v_i of span(basis), for k in _TRIAL_STEPS, each
    followed by its negative.  They lie on a moment curve, so a hyperplane
    not containing the span holds at most len(basis) - 1 of them; a single
    basis vector gives just v and -v."""
    steps = _TRIAL_STEPS if len(basis) > 1 else _TRIAL_STEPS[:1]
    for k in steps:
        p = basis[0]
        for i, v in enumerate(basis[1:], 1):
            p = tuple(x + k ** i * y for x, y in zip(p, v))
        yield p
        yield tuple(-x for x in p)


def _certify(system: CoxeterSystem, basis, step_cap: int) -> Parabolic | None:
    """Stab(p) for the first trial point p whose stabilizer fixes every basis
    vector of Fix(X), or None.

    The walk p = w(f), f in the face C_I, gives Stab(p) = w W_I w^{-1},
    generated by the reflections in the roots w(alpha_s), s in I; such a
    reflection fixes v iff <v, w(alpha_s)> = 0.  A point outside the Tits
    cone, or one the walk does not bring to the fundamental domain within
    the step cap, certifies nothing.
    """
    for coords in _trial_points(basis):
        try:
            loc = locate(DualPoint(system, coords), step_cap)
        except StepCapExceeded:
            continue
        M = loc.w.matrix
        roots = [tuple(row[s] for row in M) for s in loc.gens]
        if all(system.pairing(v, root).is_zero() for root in roots for v in basis):
            return make(loc.w, loc.gens)
    return None


def pc(query: ClosureQuery) -> ClosureResult:
    """Parabolic closure of the query set: certified when a generic point of
    the fixed space certifies it, otherwise the scan within the radius."""
    system = query.system
    elements = query.elements
    if all(g.is_identity for g in elements):
        return ClosureResult(make(system.identity, frozenset()), ClosureStatus.EXACT, ())
    basis = _fixed_space(elements)
    if not basis:
        return ClosureResult(make(system.identity, frozenset(range(system.rank))),
                             ClosureStatus.EXACT, ())
    certified = _certify(system, basis, query.radius)
    if certified is None:
        return scan_closure(query)
    blocks, _ = _candidates(system, query.radius)
    for gens, w, point_coords in blocks[certified.rank]:
        if all(g.fixes_dual_coords(point_coords) for g in elements):
            candidate = make(w, gens)
            # one presentation (rep, gens) names one subgroup
            if not (candidate.rep is certified.rep and candidate.gens == certified.gens
                    or candidate.equals(certified)):
                raise InvariantViolation(
                    "certified closure differs from a containing candidate of its rank")
            return ClosureResult(candidate, ClosureStatus.EXACT, (candidate,))
    # the walk took at most `radius` steps, so the certified (rep, gens) is
    # itself a candidate of this block and contains the query
    raise InvariantViolation("no candidate of the certified rank contains the query")


def scan_closure(query: ClosureQuery) -> ClosureResult:
    """Parabolic closure by the candidate scan alone, within the query's
    radius: exact only when the scan was exhaustive."""
    system = query.system
    elements = query.elements
    blocks, closed = _candidates(system, query.radius)
    status = ClosureStatus.EXACT if closed else ClosureStatus.RADIUS_LIMITED
    if all(g.is_identity for g in elements):
        return ClosureResult(make(system.identity, frozenset()), status, ())
    current = make(system.identity, frozenset(range(system.rank)))
    refinements = []
    minimal_rank = None
    for gens, w, point_coords in chain.from_iterable(blocks):
        if not gens:
            # rank-0 candidates only contain the identity, excluded above
            continue
        if minimal_rank is not None and current.rank == minimal_rank:
            break
        if not all(g.fixes_dual_coords(point_coords) for g in elements):
            continue
        if minimal_rank is None:
            minimal_rank = len(gens)
        candidate = make(w, gens)
        if not candidate.contains(current):
            current = intersect(current, candidate)
            refinements.append(candidate)
    if not all(current.contains_element(g) for g in elements):
        raise InvariantViolation("closure does not contain the query elements")
    return ClosureResult(current, status, refinements)
