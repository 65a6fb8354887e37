"""Parabolic subgroups w W_I w^{-1} and their algebra.

A parabolic subgroup is stored as (rep, gens, base_point) where rep is the
shortest element of the coset rep*W_I and base_point = rep(f_I) marks the
face of the Tits cone whose stabilizer the subgroup is; locate's walk of
that point finds rep.  The subgroup is generated by the reflections in the
roots rep(alpha_s), s in gens.  Membership is an exact fixed-point test,
containment and equality pair a base point with those roots, and
intersection is one walk restricted to W_I.
"""

from __future__ import annotations

from .coxgroup import CoxeterSystem, GroupElement
from .errors import InvariantViolation, MixedSystems, require_instance
from .titscone import DEFAULT_STEP_CAP, DualPoint, _walk, fundamental_point, locate


class Parabolic:
    """A conjugate w W_I w^{-1} of a standard parabolic subgroup."""

    __slots__ = ("rep", "gens", "base_point")

    def __init__(self, rep: GroupElement, gens: frozenset[int],
                 base_point: DualPoint):
        self.rep = rep
        self.gens = gens
        self.base_point = base_point

    @property
    def system(self) -> CoxeterSystem:
        return self.rep.system

    @property
    def rank(self) -> int:
        return len(self.gens)

    def contains_element(self, g: GroupElement) -> bool:
        """Membership: g lies in the subgroup iff it fixes the base point."""
        if require_instance(g, GroupElement, "element").system is not self.system:
            raise MixedSystems("element and subgroup belong to different systems")
        return g.fixes_dual_coords(self.base_point.coords)

    def contains(self, other: "Parabolic") -> bool:
        """Subgroup containment: the reflections generating other all fix
        our base point (the stabilizer is a group, so this captures all of
        other).  The reflection in a root fixes a point iff the root pairs to
        0 with it."""
        if require_instance(other, Parabolic, "subgroup").system is not self.system:
            raise MixedSystems("subgroups belong to different systems")
        pairings = other.rep.root_pairings(self.base_point.coords)
        return all(p.is_zero() for s, p in enumerate(pairings) if s in other.gens)

    def equals(self, other: "Parabolic") -> bool:
        return self.contains(other) and other.contains(self)

    def describe(self) -> str:
        sys = self.system
        return f"({sys.format_word(self.rep.word)}, {sys.format_gens(self.gens)})"

    def __repr__(self):
        return f"Parabolic{self.describe()}"


def make(w: GroupElement, gens) -> Parabolic:
    """The parabolic w W_I w^{-1}, with w replaced by the shortest element x
    of its coset w*W_I, read off the walk of w(f_I) = x(f_I) by locate.

    If x^{-1}(alpha_s) < 0 it lies outside Phi_I (else s*x, in x*W_I, would
    be shorter than x), so <x(f_I), alpha_s> < 0 exactly when s is a left
    descent of x; s*x is again shortest in its coset, so the walk is the
    descent recursion of x, as in normalize, and takes l(x) <= l(w) steps.
    """
    system = require_instance(w, GroupElement, "coset representative").system
    I = system.label_set(gens)
    f = fundamental_point(system, I)
    base = f.transformed_by(w)
    loc = locate(base, len(w.word))
    if loc.gens != I or loc.point != f:
        raise InvariantViolation("the walk of w(f_I) did not end at f_I")
    return Parabolic(loc.w, I, base)


def intersect(p1: Parabolic, p2: Parabolic) -> Parabolic:
    """The intersection of two parabolic subgroups, again parabolic: p1 meets
    the stabilizer of p2's base point (arXiv math/0512408)."""
    require_instance(p1, Parabolic, "subgroup")
    if p1.system is not require_instance(p2, Parabolic, "subgroup").system:
        raise MixedSystems("subgroups belong to different systems")
    return _intersect_stabilizer(p1, p2.base_point.coords)


def _intersect_stabilizer(p: Parabolic, coords, either_sign: bool = False) -> Parabolic:
    """The subgroup of p = w W_I w^{-1} fixing the dual point v with the given
    pairings: w (W_I & Stab(y)) w^{-1} for y = w^{-1}(v).

    The pairings of y are w's root pairings <v, w(alpha_t)>.  Walking y with
    the generators of I alone ends at a point y' = u^{-1}(y), u in W_I, that
    pairs nonnegatively with alpha_s for every s in I; its stabilizer in W_I is W_J, J the generators of I pairing to 0
    with it (Humphreys 1990, 5.13, for W_I).  So the answer is
    (w u) W_J (w u)^{-1}, and p itself when J = I.  The walk ends when W_I is
    finite or v lies in the Tits cone: only finitely many positive roots pair
    negatively with y, and each step removes one.  Every conjugate of the
    trivial group is trivial, so J = {} gives (e, {}).

    v and -v have one stabilizer.  With either_sign, for a caller whose W_I
    is finite so that both walks end, the walk starts from whichever of y and
    -y pairs negatively with fewer alpha_s, s in I: a shorter walk, and so a
    shorter representative.
    """
    system = p.system
    y = DualPoint(system, p.rep.root_pairings(coords))
    if either_sign:
        signs = [y.coords[s].sign() for s in p.gens]
        if signs.count(-1) > signs.count(1):
            y = DualPoint(system, tuple(-c for c in y.coords))
    letters, final = _walk(y, sorted(p.gens), DEFAULT_STEP_CAP)
    J = system.label_set(s for s in p.gens if final[s].is_zero())
    if J == p.gens:
        return p
    if not J:
        return make(system.identity, J)
    return make(system.normalize(p.rep.word + tuple(letters)), J)


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
    if require_instance(w, GroupElement, "element").system is not system:
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
