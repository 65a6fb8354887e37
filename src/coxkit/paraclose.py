"""Parabolic closure: the smallest parabolic subgroup containing a given set.

The closure is found by scanning candidate parabolics (w, I), with w a
coset-minimal representative of bounded length, in order of increasing rank
and length.  Containment of the query set in a candidate is a cheap exact
test: every query element must fix the candidate's base point.  The running
intersection of the containing candidates stabilizes at the closure; for a
finite group scanned exhaustively the result is exact, and the first
containing candidate already has minimal rank, which also certifies the
minimal-rank characterization of the closure.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations

from .coxgroup import CoxeterSystem
from .errors import InvalidQuery, InvariantViolation, MixedSystems
from .parabolic import Parabolic, intersect, make
from .titscone import fundamental_point


class ClosureStatus(Enum):
    EXACT = "exact"
    RADIUS_LIMITED = "radius-limited"


class ClosureQuery:
    """A set of group elements and a length bound for the candidate scan."""

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

    status is EXACT when the scan was exhaustive (the group is finite and the
    enumeration closed within the radius); otherwise RADIUS_LIMITED, meaning
    the result is the intersection of the containing parabolics visible
    within the radius.  refinements lists the candidates that strictly
    shrank the running intersection.
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
    of length <= radius, ordered by (rank, length, word, subset).  Cached per
    system and radius."""
    cache = getattr(system, "_closure_candidates", None)
    if cache is None:
        cache = system._closure_candidates = {}
    hit = cache.get(radius)
    if hit is not None:
        return hit
    layers, closed = system.elements_up_to(radius)
    elements = [g for layer in layers for g in layer]
    n = system.rank
    out = []
    for size in range(n + 1):
        block = []
        for subset in combinations(range(n), size):
            I = frozenset(subset)
            point = fundamental_point(system, I)
            for w in elements:
                if w.right_descents & I:
                    continue
                block.append((len(w.word), w.word, subset, w,
                              w.act_dual_coords(point.coords)))
        block.sort(key=lambda item: item[:3])
        out.extend((frozenset(item[2]), item[3], item[4]) for item in block)
    result = (tuple(out), closed)
    cache[radius] = result
    return result


def pc(query: ClosureQuery) -> ClosureResult:
    """Parabolic closure of the query set, within the query's radius."""
    system = query.system
    elements = query.elements
    candidates, closed = _candidates(system, query.radius)
    status = ClosureStatus.EXACT if closed else ClosureStatus.RADIUS_LIMITED
    if all(g.is_identity for g in elements):
        return ClosureResult(make(system.identity, frozenset()), status, ())
    current = make(system.identity, frozenset(range(system.rank)))
    refinements = []
    minimal_rank = None
    for gens, w, point_coords in candidates:
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
