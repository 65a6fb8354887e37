"""Roots of the reflection representation and the root/reflection bijection.

Every root is an image w(alpha_s) of a simple root; its coordinates in the
simple-root basis are either all nonnegative or all nonpositive, and its norm
under the bilinear form is exactly 1.  The reflection attached to a positive
root alpha acts by t_alpha(v) = v - 2*(alpha, v)*alpha, and alpha <-> t_alpha
is a bijection between positive roots and reflections.
"""

from __future__ import annotations

from .coxgroup import CoxeterSystem, GroupElement
from .errors import (InvariantViolation, NotARoot, RootSignViolation,
                     StepCapExceeded, SupportNotContained, require_count, require_instance)

_REFLECTION_WORD_CAP = 4096


class Root:
    """A root vector in simple-root coordinates.

    Coordinates are scalars of the system's field; ints and Fractions are
    converted, anything else raises MixedFields, and a wrong number of them
    raises DimensionMismatch, as for DualPoint.  Construction checks the sign
    dichotomy: mixed coordinate signs raise RootSignViolation.  sign is +1 for
    positive roots and -1 for negative.
    """

    __slots__ = ("system", "coords", "support", "sign")

    def __init__(self, system: CoxeterSystem, coords):
        coords = require_instance(system, CoxeterSystem, "system")._field_coords(coords)
        signs = {c.sign() for c in coords}
        signs.discard(0)
        if len(signs) != 1:
            shown = ", ".join(map(str, coords))
            raise RootSignViolation(f"coordinates ({shown}) are not one-signed")
        self.system = system
        self.coords = coords
        self.sign = signs.pop()
        self.support = frozenset(i for i, c in enumerate(coords) if c)

    def is_positive(self) -> bool:
        return self.sign > 0

    def is_simple(self) -> bool:
        return len(self.support) == 1 and \
            self.coords[next(iter(self.support))] == 1

    def norm(self):
        return self.system.form_value(self.coords, self.coords)

    def __neg__(self) -> "Root":
        return Root(self.system, tuple(-c for c in self.coords))

    def __eq__(self, other):
        if isinstance(other, Root):
            return self.system is other.system and self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def __repr__(self):
        return f"Root{self}"


class Reflection:
    """A reflection together with the positive root it negates."""

    __slots__ = ("element", "root")

    def __init__(self, element: GroupElement, root: Root):
        self.element = element
        self.root = root

    def __repr__(self):
        return f"Reflection({self.element!r}, {self.root!r})"


def simple_root(system: CoxeterSystem, s: int) -> Root:
    """The simple root alpha_s; s must be a generator index."""
    (s,) = require_instance(system, CoxeterSystem, "system").check_letters((s,))
    return Root(system, system.basis_vector(s))


def root_of(w: GroupElement, s: int) -> Root:
    """The root w(alpha_s); s must be a generator index."""
    system = require_instance(w, GroupElement, "element").system
    (s,) = system.check_letters((s,))
    return Root(system, w.act(system.basis_vector(s)))


def reflection_matrix(root: Root):
    """Matrix of v -> v - 2*(alpha, v)*alpha for alpha = root.  Each pairing
    takes one generator step: sigma_s(alpha)_s = alpha_s - 2*(alpha, alpha_s),
    so 2*(alpha, alpha_s) = alpha_s - sigma_s(alpha)_s."""
    system = root.system
    alpha = root.coords
    twice = [a - system._apply_gen_vec(s, alpha)[s] for s, a in enumerate(alpha)]
    return tuple(tuple(x - p2 * a for x, p2 in zip(row, twice))
                 for row, a in zip(system._identity_matrix, alpha))


def reflection_of_root(root: Root) -> Reflection:
    """The reflection negating a positive root, as a canonical group element.

    The column sums of T = reflection_matrix(root) are <rho, T(alpha_s)> =
    <T(rho), alpha_s> (T is an involution), and walking T(rho) back to rho
    spells T's canonical word, as in normalize.  For a vector that is not a
    root the walk hits the cap, ends away from rho, or spells an element
    whose matrix is not T, and each raises NotARoot.
    """
    system = require_instance(root, Root, "root").system
    if root.sign < 0:
        raise NotARoot("reflections are indexed by positive roots")
    if root.norm() != 1:
        raise NotARoot(f"vector {root} does not have unit norm")
    T = reflection_matrix(root)
    q = list(map(sum, zip(*T)))
    letters = system._walk_dual(q, range(system.rank), _REFLECTION_WORD_CAP)
    if letters is None or q != [system.field.one] * system.rank:
        raise NotARoot(f"vector {root} is not a root of the system")
    element = system._element(tuple(letters))
    if element.matrix != T:
        raise NotARoot(f"vector {root} is not a root of the system")
    return Reflection(element, root)


def root_depths(system: CoxeterSystem, depth: int,
                gens=None) -> dict[Root, int]:
    """Positive roots by breadth-first closure of the simple roots under the
    simple reflections, through the given number of layers; values are the
    layer of first discovery.  A root first found in layer k corresponds to a
    reflection of length 2*k + 1.  Stops early once no new roots appear
    (finite root system exhausted).  With gens, the closure is restricted to
    the subsystem on that generator subset.  A depth that is not a
    nonnegative int raises InvalidQuery."""
    require_count(depth, "depth")
    require_instance(system, CoxeterSystem, "system")
    I = sorted(system.label_set(gens)) if gens is not None else range(system.rank)
    seen: dict[Root, int] = {}
    frontier = [simple_root(system, s) for s in I]
    for r in frontier:
        seen[r] = 0
    for layer in range(1, depth + 1):
        new = []
        for r in frontier:
            for s in I:
                img = Root(system, system._apply_gen_vec(s, r.coords))
                if img.is_positive() and img not in seen:
                    seen[img] = layer
                    new.append(img)
        if not new:
            break
        frontier = new
    return seen


def enumerate_roots(system: CoxeterSystem, depth: int) -> list[Root]:
    """Positive roots through the given BFS depth, sorted by coordinate
    vectors so the enumeration order is deterministic; depth as for
    root_depths."""
    found = root_depths(system, depth)
    return sorted(found, key=lambda r: tuple(c.coeffs for c in r.coords))


def descend_root(root: Root, gens) -> tuple[GroupElement, int]:
    """Write a positive root with support inside the generator subset as
    u(alpha_s) with u a word over the subset and s in the subset.

    Greedy descent: repeatedly apply the smallest generator s in the subset
    with (root, alpha_s) > 0; each step shortens the attached reflection, so
    the walk ends at a simple root.  The test takes the step itself:
    sigma_s(root)_s = root_s - 2*(root, alpha_s) drops exactly when the
    pairing is positive, and that image is the next root.  Returns (u, s)
    with root = u(alpha_s).  A descent longer than _REFLECTION_WORD_CAP steps
    raises StepCapExceeded.
    """
    system = require_instance(root, Root, "root").system
    I = system.label_set(gens)
    if root.sign < 0:
        raise RootSignViolation("descend_root expects a positive root")
    if not root.support <= I:
        raise SupportNotContained(
            f"support {sorted(root.support)} not inside {sorted(I)}")
    letters = []
    current = root
    ordered = sorted(I)
    while not current.is_simple():
        if len(letters) == _REFLECTION_WORD_CAP:
            raise StepCapExceeded(
                f"root descent did not end within {_REFLECTION_WORD_CAP} steps")
        step = None
        for s in ordered:
            image = system._apply_gen_vec(s, current.coords)
            if image[s] < current.coords[s]:
                step = s
                break
        # a positive root has positive pairing with some simple root of its
        # support, since (root, root) = 1 > 0
        if step is None:
            raise InvariantViolation("no descent available from a nonsimple root")
        nxt = Root(system, image)
        if not nxt.is_positive():
            raise InvariantViolation("descent left the positive roots")
        letters.append(step)
        current = nxt
    target = next(iter(current.support))
    u = system.normalize(letters)
    if not set(u.word) <= I:
        raise InvariantViolation("descent word leaves the generator subset")
    return u, target
