"""Point location in the Tits cone.

A point of the dual space is stored by its pairings f_s = <f, alpha_s> with
the simple roots.  The fundamental domain is the set of points with all
pairings nonnegative; its faces C_I collect the points vanishing exactly on
I.  Every point of the cone W * (closure of the fundamental chamber) is
carried to the fundamental domain by repeatedly applying a generator whose
pairing is negative, and the stabilizer of a point of w(C_I) is exactly
w W_I w^{-1}.
"""

from __future__ import annotations

from .coxgroup import CoxeterSystem, GroupElement
from .errors import DimensionMismatch, InvalidQuery, MixedSystems, StepCapExceeded

DEFAULT_STEP_CAP = 10000


class DualPoint:
    """A point of the dual space, by its pairings with the simple roots."""

    __slots__ = ("system", "coords")

    def __init__(self, system: CoxeterSystem, coords):
        coords = tuple(coords)
        if len(coords) != system.rank:
            raise DimensionMismatch("coordinate length does not match the rank")
        self.system = system
        self.coords = coords

    def pairing(self, vec):
        """<f, v> for a vector v in simple-root coordinates."""
        return self.system.pairing(self.coords, vec)

    def transformed_by(self, w: GroupElement) -> "DualPoint":
        if w.system is not self.system:
            raise MixedSystems("element and point belong to different systems")
        return DualPoint(self.system, w.act_dual_coords(self.coords))

    def __eq__(self, other):
        if isinstance(other, DualPoint):
            return self.system is other.system and self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def __repr__(self):
        return f"DualPoint{self}"


class CellLocation:
    """Location of a point: the cell w(C_I) containing it, together with the
    canonical representative f0 of its W-orbit inside C_I."""

    __slots__ = ("w", "gens", "point")

    def __init__(self, w: GroupElement, gens: frozenset[int], point: DualPoint):
        self.w = w
        self.gens = gens
        self.point = point

    def __repr__(self):
        labels = self.w.system.format_gens(self.gens)
        return f"CellLocation(w=<{self.w}>, gens={labels}, point={self.point})"


def fundamental_point(system: CoxeterSystem, gens) -> DualPoint:
    """The marked point of the face C_I: pairing 0 with alpha_s for s in the
    subset, pairing 1 otherwise (the all-ones point for the empty subset)."""
    I = system.label_set(gens)
    one, zero = system.field.one, system.field.zero
    return DualPoint(system,
                     tuple(zero if s in I else one for s in range(system.rank)))


def _walk(f: DualPoint, gens, step_cap: int) -> tuple[list[int], tuple]:
    """Walk f with the generators gens, given in increasing order: while some
    of them pairs negatively with the point, apply the smallest such one.

    Returns the letters applied, in order, and the final pairings.  The
    walk never takes more than step_cap steps (StepCapExceeded); a negative
    cap is an InvalidQuery.
    """
    if step_cap < 0:
        raise InvalidQuery("step cap must be nonnegative")
    system = f.system
    coords = f.coords
    letters = []
    while True:
        negative = next((s for s in gens if coords[s].sign() < 0), None)
        if negative is None:
            return letters, coords
        if len(letters) == step_cap:
            raise StepCapExceeded(
                f"no dominant representative within {step_cap} steps; "
                "the point may lie outside the Tits cone")
        coords = system._apply_gen_dual(negative, coords)
        letters.append(negative)


def locate(f: DualPoint, step_cap: int = DEFAULT_STEP_CAP) -> CellLocation:
    """Find the cell of the Tits cone containing f.

    Walk: while some pairing is negative, apply the smallest such generator.
    The walk ends in the fundamental domain at the unique dominant
    representative f0 with f = w(f0); the zero pairings there name the face.
    Points outside the cone never reach the fundamental domain and hit the
    step cap instead (StepCapExceeded).
    """
    system = f.system
    letters, coords = _walk(f, range(system.rank), step_cap)
    gens = frozenset(s for s, c in enumerate(coords) if c.is_zero())
    return CellLocation(system.normalize(letters), gens, DualPoint(system, coords))


def stabilizer(f: DualPoint, step_cap: int = DEFAULT_STEP_CAP):
    """The stabilizer of a point of the Tits cone, as a parabolic subgroup."""
    from .parabolic import make
    loc = locate(f, step_cap)
    return make(loc.w, loc.gens)
