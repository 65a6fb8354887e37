"""Point location in the Tits cone.

A point of the dual space is stored by its pairings f_s = <f, alpha_s> with
the simple roots.  The fundamental domain is the set of points with all
pairings nonnegative; its faces C_I collect the points vanishing exactly on
I.  Every point of the cone W * (closure of the fundamental chamber) is
carried to the fundamental domain by repeatedly applying a generator whose
pairing is negative, and the stabilizer of a point of w(C_I) is exactly
w W_I w^{-1}.

The Tits cone U is the product of its components' cones.  ConeComponent
classifies the finite, affine and compact hyperbolic components, and finds a
point of such a component's cone in a span, exactly.  No function here
decides whether a given point lies in U: locate walks, and a point outside U
walks to the step cap (StepCapExceeded).
"""

from __future__ import annotations

from .coxgroup import CoxeterSystem, GroupElement
from .errors import (InvariantViolation, MixedSystems, StepCapExceeded, require_count,
                     require_instance)

DEFAULT_STEP_CAP = 10000


class DualPoint:
    """A point of the dual space, by its pairings with the simple roots.

    Coordinates are scalars of the system's field; ints and Fractions are
    converted, and anything else raises MixedFields."""

    __slots__ = ("system", "coords")

    def __init__(self, system: CoxeterSystem, coords):
        self.system = require_instance(system, CoxeterSystem, "system")
        self.coords = system._field_coords(coords)

    def transformed_by(self, w: GroupElement) -> "DualPoint":
        if require_instance(w, GroupElement, "element").system is not self.system:
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
    I = require_instance(system, CoxeterSystem, "system").label_set(gens)
    one, zero = system.field.one, system.field.zero
    return DualPoint(system,
                     tuple(zero if s in I else one for s in range(system.rank)))


def _walk(f: DualPoint, gens, step_cap: int) -> tuple[list[int], tuple]:
    """Walk f with the generators gens, given in increasing order: while some
    of them pairs negatively with the point, apply the smallest such one.

    Returns the letters applied, in order, and the final pairings.  The
    walk never takes more than step_cap steps (StepCapExceeded); a cap that
    is not a nonnegative int is an InvalidQuery.
    """
    coords = list(f.coords)
    letters = f.system._walk_dual(coords, gens, require_count(step_cap, "step cap"))
    if letters is None:
        raise StepCapExceeded(
            f"no dominant representative within {step_cap} steps; "
            "the point may lie outside the Tits cone")
    return letters, tuple(coords)


def locate(f: DualPoint, step_cap: int = DEFAULT_STEP_CAP) -> CellLocation:
    """Find the cell of the Tits cone containing f.

    Walk: while some pairing is negative, apply the smallest such generator.
    The walk ends in the fundamental domain at the unique dominant
    representative f0 with f = w(f0); the zero pairings there name the face.
    Points outside the cone never reach the fundamental domain and hit the
    step cap instead (StepCapExceeded).
    """
    system = require_instance(f, DualPoint, "point").system
    letters, coords = _walk(f, range(system.rank), step_cap)
    gens = system.label_set(s for s, c in enumerate(coords) if c.is_zero())
    return CellLocation(system.normalize(letters), gens, DualPoint(system, coords))


def stabilizer(f: DualPoint):
    """The stabilizer w W_I w^{-1} of a point f = w(f0), f0 in C_I, of the
    Tits cone.  f and w(f_I) pair with every root with the same sign, so
    their walks agree, and locate's w is already shortest in w*W_I (make)."""
    from .parabolic import Parabolic
    loc = locate(f)
    base = fundamental_point(f.system, loc.gens).transformed_by(loc.w)
    return Parabolic(loc.w, loc.gens, base)


# -- the type of the cone ---------------------------------------------------------


def _det(rows, zero, one):
    """Determinant by cofactor expansion along successive rows, division-free,
    with each minor memoized by its column set."""
    k = len(rows)
    memo = {}

    def minor(cols):
        if not cols:
            return one
        hit = memo.get(cols)
        if hit is None:
            row = rows[k - len(cols)]
            hit = zero
            for i, c in enumerate(cols):
                if row[c]:
                    term = row[c] * minor(cols[:i] + cols[i + 1:])
                    hit = hit - term if i % 2 else hit + term
            memo[cols] = hit
        return hit

    return minor(tuple(range(k)))


class ConeComponent:
    """An irreducible component of a system (a connected component of its
    Coxeter graph, on the generators gens) and the data deciding its cone U_c.

    kind is one of
      "finite":     B_c is positive definite and U_c is the whole space;
      "affine":     B_c is positive semidefinite with radical spanned by
                    delta, all of whose coordinates are positive, and
                    U_c = {f : <f, delta> > 0} together with 0;
      "hyperbolic": compact hyperbolic, B_c of signature (k-1, 1) with every
                    proper standard parabolic finite, and U_c the open future
                    cone of the dual form together with 0 (Humphreys 1990,
                    6.8);
      None:         none of these, so U_c is not decided here.
    form is delta for an affine component and adj(B_c) for a hyperbolic one,
    indexed like gens.  B_c^{-1} = adj(B_c) / det B_c with det B_c < 0, so f
    is timelike iff f^T adj(B_c) f > 0 and no division is needed.
    """

    __slots__ = ("system", "gens", "kind", "form")

    def __init__(self, system: CoxeterSystem, gens: tuple[int, ...]):
        self.system = system
        self.gens = gens
        field = system.field
        B = [[system.form[s][t] for t in gens] for s in gens]
        k = len(gens)

        def positive_definite(idx):
            # Sylvester: every leading principal minor is positive
            return all(_det([[B[i][j] for j in idx[:m]] for i in idx[:m]],
                            field.zero, field.one).sign() > 0
                       for m in range(1, len(idx) + 1))

        self.form = None
        # every proper standard parabolic is finite iff every principal
        # submatrix of size k - 1 is positive definite
        if not all(positive_definite([j for j in range(k) if j != i])
                   for i in range(k)):
            self.kind = None
            return
        adj = [[_det([[B[r][c] for c in range(k) if c != i]
                      for r in range(k) if r != j], field.zero, field.one)
                * (-1 if (i + j) % 2 else 1)
                for j in range(k)] for i in range(k)]
        det = sum((B[0][j] * adj[j][0] for j in range(k)), field.zero).sign()
        if det > 0:
            self.kind = "finite"
        elif det == 0:
            # B adj(B) = det(B) I = 0; adj[0][0] is a positive principal minor
            self.kind = "affine"
            self.form = tuple(adj[i][0] for i in range(k))
        else:
            self.kind = "hyperbolic"
            self.form = adj

    def _restrict(self, v):
        zero = self.system.field.zero
        return tuple(x if s in self.gens else zero for s, x in enumerate(v))

    def _dual_form(self, u, v):
        """u^T adj(B_c) v on the component's coordinates."""
        zero = self.system.field.zero
        return sum((u[s] * sum((a * v[t] for a, t in zip(row, self.gens)), zero)
                    for row, s in zip(self.form, self.gens) if u[s]), zero)

    def cone_point(self, vectors):
        """A nonzero point of U_c in the span of the vectors restricted to this
        component, or None when that span meets U_c only in 0.  Exact; for a
        hyperbolic component the restricted dual form is diagonalized by the
        division-free Lagrange method.  The point has length rank, with 0 off
        the component."""
        vecs = [v for v in map(self._restrict, vectors) if any(v)]
        if self.kind == "finite":
            return vecs[0] if vecs else None
        if self.kind == "affine":
            for v in vecs:
                level = sum((d * v[s] for d, s in zip(self.form, self.gens)),
                            self.system.field.zero).sign()
                if level:
                    return v if level > 0 else tuple(-x for x in v)
            return None
        if self.kind != "hyperbolic":
            raise InvariantViolation("the cone of this component is not classified")
        while vecs:
            values = [self._dual_form(v, v).sign() for v in vecs]
            if 1 in values:
                return self._future(vecs[values.index(1)])
            if -1 not in values:
                # a totally isotropic span, unless two vectors pair nonzero
                for i, u in enumerate(vecs):
                    for v in vecs[i + 1:]:
                        b = self._dual_form(u, v).sign()
                        if b:
                            return self._future(tuple(x + b * y for x, y in zip(u, v)))
                return None
            # split off a spacelike pivot: its orthogonal complement in the
            # span holds a timelike vector iff the span does
            pivot = vecs.pop(values.index(-1))
            a = self._dual_form(pivot, pivot)
            projected = []
            for v in vecs:
                b = self._dual_form(v, pivot)
                w = tuple(a * x - b * y for x, y in zip(v, pivot))
                if any(w):
                    projected.append(w)
            vecs = projected
        return None

    def _future(self, v):
        """The timelike v or -v, whichever lies in the sheet of the chamber:
        two timelike vectors share a sheet iff they pair negatively under
        B_c^{-1}, and the all-ones point lies in the chamber."""
        ones = self._restrict((self.system.field.one,) * self.system.rank)
        return v if self._dual_form(v, ones).sign() > 0 else tuple(-x for x in v)


def cone_components(system: CoxeterSystem) -> tuple[ConeComponent, ...]:
    """The irreducible components of the system, classified once and cached
    on it."""
    cached = system.cache["tits_cone"]
    if cached is None:
        n = system.rank
        seen, components = set(), []
        for first in range(n):
            if first in seen:
                continue
            gens, frontier = {first}, [first]
            while frontier:
                s = frontier.pop()
                for t in range(n):
                    if t not in gens and system.matrix[s][t] != 2:
                        gens.add(t)
                        frontier.append(t)
            seen |= gens
            components.append(ConeComponent(system, tuple(sorted(gens))))
        cached = system.cache["tits_cone"] = tuple(components)
    return cached
