"""Parabolic subgroups w W_I w^{-1} and their algebra.

A parabolic subgroup is stored as (rep, gens, base_point) where rep is the
shortest element of the coset rep*W_I and base_point = rep(f_I) marks the
face of the Tits cone whose stabilizer the subgroup is.  Membership,
containment and equality therefore reduce to exact fixed-point tests, and
intersection reduces to locating a generic point of the segment joining the
two base points.
"""

from __future__ import annotations

from fractions import Fraction

from .coxgroup import CoxeterSystem, GroupElement
from .errors import MixedSystems, RetryCapExceeded
from .titscone import DualPoint, fundamental_point, locate

DEFAULT_RETRY_CAP = 64


class Parabolic:
    """A conjugate w W_I w^{-1} of a standard parabolic subgroup."""

    __slots__ = ("rep", "gens", "base_point", "_conjugated_gens")

    def __init__(self, rep: GroupElement, gens: frozenset[int],
                 base_point: DualPoint):
        self.rep = rep
        self.gens = gens
        self.base_point = base_point
        self._conjugated_gens = None

    @property
    def system(self) -> CoxeterSystem:
        return self.rep.system

    @property
    def rank(self) -> int:
        return len(self.gens)

    @property
    def conjugated_generators(self) -> tuple[GroupElement, ...]:
        """The generators rep * s * rep^{-1} for s in gens."""
        if self._conjugated_gens is None:
            w = self.rep
            winv = w.inverse()
            self._conjugated_gens = tuple(
                w * self.system.generator(s) * winv for s in sorted(self.gens))
        return self._conjugated_gens

    def contains_element(self, g: GroupElement) -> bool:
        """Membership: g lies in the subgroup iff it fixes the base point."""
        if g.system is not self.system:
            raise MixedSystems("element and subgroup belong to different systems")
        return g.fixes_dual_coords(self.base_point.coords)

    def contains(self, other: "Parabolic") -> bool:
        """Subgroup containment: the generators of other all fix our base
        point (the stabilizer is a group, so this captures all of other)."""
        if other.system is not self.system:
            raise MixedSystems("subgroups belong to different systems")
        return all(g.fixes_dual_coords(self.base_point.coords)
                   for g in other.conjugated_generators)

    def equals(self, other: "Parabolic") -> bool:
        return self.contains(other) and other.contains(self)

    def describe(self) -> str:
        sys = self.system
        return f"({sys.format_word(self.rep.word)}, {sys.format_gens(self.gens)})"

    def __repr__(self):
        return f"Parabolic{self.describe()}"


def make(w: GroupElement, gens) -> Parabolic:
    """The parabolic w W_I w^{-1}, with w replaced by the shortest element of
    its coset w*W_I (repeatedly strip right descents lying in the subset)."""
    system = w.system
    I = system.label_set(gens)
    while True:
        descents = w.right_descents & I
        if not descents:
            break
        w = w * system.generator(min(descents))
    base = fundamental_point(system, I).transformed_by(w)
    return Parabolic(w, I, base)


def _segment_parameters():
    """Deterministic stream of rationals strictly inside (0, 1): fractions
    k/p for increasing primes p, avoiding repeated values."""
    p = 2
    while True:
        for k in range(1, p):
            yield Fraction(k, p)
        p += 1
        while any(p % d == 0 for d in range(2, p)):
            p += 1


def intersect(p1: Parabolic, p2: Parabolic,
              retry_cap: int = DEFAULT_RETRY_CAP) -> Parabolic:
    """The intersection of two parabolic subgroups, again parabolic.

    A generic point f of the open segment joining the base points has
    stabilizer exactly the intersection; candidate points are taken at a
    deterministic sequence of rational parameters, and a candidate stabilizer
    is accepted iff each of its generators fixes both endpoints (it always
    contains the intersection, so fixing both endpoints makes it equal).
    """
    if p1.system is not p2.system:
        raise MixedSystems("subgroups belong to different systems")
    if p1.contains(p2):
        return p2
    if p2.contains(p1):
        return p1
    x1, x2 = p1.base_point, p2.base_point
    trials = 0
    for t in _segment_parameters():
        if trials >= retry_cap:
            break
        trials += 1
        loc = locate(x1.combine(x2, t))
        candidate = make(loc.w, loc.gens)
        gens = candidate.conjugated_generators
        if all(g.fixes_dual_coords(x1.coords) for g in gens) and \
           all(g.fixes_dual_coords(x2.coords) for g in gens):
            return candidate
    raise RetryCapExceeded(
        f"no stabilizer on the segment was the intersection after {retry_cap} trials")


class ConjugacyWitness:
    """Certificate that w W_J w^{-1} = W_I: the shortest coset element w0
    maps the simple roots of J bijectively onto the simple roots of I."""

    __slots__ = ("w0", "mapping")

    def __init__(self, w0: GroupElement, mapping: dict[int, int]):
        self.w0 = w0
        self.mapping = mapping

    def __repr__(self):
        return f"ConjugacyWitness(w0=<{self.w0}>, mapping={self.mapping})"


def conjugacy_normalize(system: CoxeterSystem, gens_i, gens_j,
                        w: GroupElement) -> ConjugacyWitness | None:
    """Decide whether w W_J w^{-1} = W_I via the simple-root criterion.

    The shortest element w0 of the coset w*W_J satisfies w0 W_J w0^{-1} =
    w W_J w^{-1}; conjugacy to W_I holds iff w0 maps {alpha_t : t in J}
    exactly onto {alpha_i : i in I}.  Returns the witness, or None as a
    refutation.
    """
    if w.system is not system:
        raise MixedSystems("element belongs to a different system")
    I = system.label_set(gens_i)
    J = system.label_set(gens_j)
    w0 = make(w, J).rep
    mapping = {}
    simple = {system.basis_vector(i): i for i in I}
    for t in sorted(J):
        image = w0.act(system.basis_vector(t))
        i = simple.get(image)
        if i is None:
            return None
        mapping[t] = i
    if set(mapping.values()) != set(I):
        return None
    return ConjugacyWitness(w0, mapping)
