import random
from fractions import Fraction

import pytest
from mpmath import mp

from coxkit import corpus
from coxkit.coxgroup import build_system
from coxkit.errors import (CoxeterError, DimensionMismatch, InvalidQuery,
                           MixedFields, MixedSystems, StepCapExceeded)
from coxkit.oracle import enumerate_group
from coxkit.titscone import (DualPoint, cone_components, fundamental_point,
                             locate, stabilizer)


def point(system, *values):
    return DualPoint(system, tuple(system.field.from_rational(Fraction(v))
                                   for v in values))


# -- fundamental points ---------------------------------------------------------


def test_empty_subset_gives_interior_point(a2):
    assert fundamental_point(a2, frozenset()) == point(a2, 1, 1)


def test_full_subset_gives_origin(a2):
    assert fundamental_point(a2, frozenset({0, 1})) == point(a2, 0, 0)


def test_singleton_subset(a2):
    assert fundamental_point(a2, frozenset({0})) == point(a2, 0, 1)


def test_dimension_checked(a2):
    with pytest.raises(DimensionMismatch):
        point(a2, 1, 1, 1)


# -- locate -----------------------------------------------------------------------


def test_interior_point_is_already_dominant(a2):
    f = fundamental_point(a2, frozenset())
    loc = locate(f)
    assert loc.w.is_identity
    assert loc.gens == frozenset()
    assert loc.point == f


def test_one_step_walk(a2):
    f = fundamental_point(a2, frozenset()).transformed_by(a2.generator(0))
    loc = locate(f)
    assert loc.w == a2.generator(0)
    assert loc.gens == frozenset()
    assert loc.point == fundamental_point(a2, frozenset())


def test_midpoint_example(a2):
    # f({s}) + s(f({t})), twice their midpoint: its stabilizer must match the
    # oracle
    a = fundamental_point(a2, frozenset({0}))
    b = fundamental_point(a2, frozenset({1})).transformed_by(a2.generator(0))
    f = DualPoint(a2, tuple(x + y for x, y in zip(a.coords, b.coords)))
    P = stabilizer(f)
    table = enumerate_group(a2)
    fixing = {g for g in table.elements if g.fixes_dual_coords(f.coords)}
    assert {g for g in table.elements if P.contains_element(g)} == fixing
    assert P.rank <= 1


def test_located_cell_reproduces_the_point(b3):
    import random
    rng = random.Random(11)
    for _ in range(25):
        w = b3.normalize([rng.randrange(3) for _ in range(rng.randint(0, 6))])
        I = frozenset(s for s in range(3) if rng.random() < 0.5)
        f = fundamental_point(b3, I).transformed_by(w)
        loc = locate(f)
        assert loc.point == fundamental_point(b3, I)
        assert loc.point.transformed_by(loc.w) == f
        assert loc.gens == I


def test_step_cap(a2, a3):
    # the cap counts steps: the walk of s t s (f) takes three, and a dominant
    # point needs none
    f = fundamental_point(a2, frozenset()).transformed_by(a2.element("s t s"))
    with pytest.raises(StepCapExceeded):
        locate(f, step_cap=2)
    assert locate(f, step_cap=3).w == a2.element("s t s")
    loc = locate(fundamental_point(a3, frozenset({0})), step_cap=0)
    assert loc.w.is_identity and loc.gens == frozenset({0})


def test_negative_step_cap_rejected(a3, dinf):
    with pytest.raises(InvalidQuery):
        locate(fundamental_point(a3, frozenset({0})), step_cap=-1)
    # a fractional cap was never reached by the step count, so the walk of a
    # point outside the cone ran on without end
    for cap in (50.5, "3", True, Fraction(50)):
        with pytest.raises(InvalidQuery):
            locate(point(dinf, -1, -1), cap)


def test_point_outside_the_cone_is_detected(dinf):
    with pytest.raises(StepCapExceeded):
        locate(point(dinf, -1, -1))


def test_rational_coordinates_are_converted(a2):
    assert DualPoint(a2, (1, Fraction(-1, 2))) == point(a2, 1, Fraction(-1, 2))
    loc = locate(DualPoint(a2, (1, -1)))
    assert loc.w.word == (1,)
    assert loc.point == point(a2, 0, 1)


def test_coordinates_outside_the_field_rejected(a2, b2):
    # b2's field is Q(sqrt 2): its scalars are not a2's
    with pytest.raises(MixedFields):
        DualPoint(a2, fundamental_point(b2, frozenset()).coords)
    for bad in ((0.5, 1), (1, "1"), (1, None)):
        with pytest.raises(CoxeterError):
            DualPoint(a2, bad)


def test_mixed_systems(a2, b2):
    with pytest.raises(MixedSystems):
        fundamental_point(a2, frozenset()).transformed_by(b2.generator(0))


# -- stabilizers --------------------------------------------------------------------


def test_origin_is_stabilized_by_everything(a2):
    P = stabilizer(point(a2, 0, 0))
    assert P.rank == 2
    assert P.rep.is_identity


def assert_is_conjugate(P, w, I):
    """P is w W_I w^{-1}, checked without the chamber walk: its rep is the
    shortest element of w*W_I, and its element set is the oracle's literal
    w W_I w^{-1}."""
    assert P.gens == I
    assert not P.rep.right_descents & I
    assert set((P.rep.inverse() * w).word) <= I
    table = enumerate_group(w.system)
    literal = table.conjugate_set(table.index[w], table.special_subgroup(I))
    assert table.subgroup_elements(P) == literal


def test_wall_point_stabilizer(a2):
    P = stabilizer(fundamental_point(a2, frozenset({0})))
    assert_is_conjugate(P, a2.identity, frozenset({0}))


def test_stabilizer_of_transformed_point():
    system = corpus.load("g2")
    w = system.element("s t s")
    I = frozenset({1})
    f = fundamental_point(system, I).transformed_by(w)
    P = stabilizer(f)
    assert_is_conjugate(P, w, I)
    assert P.rep is w and P.base_point == f



# -- the type of the cone -----------------------------------------------------------


INF = float("inf")
CONE_MATRICES = {
    "affine_b2": [[1, 4, 2], [4, 1, 4], [2, 4, 1]],
    "affine_g2": [[1, 6, 2], [6, 1, 3], [2, 3, 1]],
    "hyperbolic_237": [[1, 3, 2], [3, 1, 7], [2, 7, 1]],
}
CONE_NAMES = ("dihedral_inf", "affine_a2", "hyperbolic_334") + tuple(CONE_MATRICES)
TINY = mp.mpf(10) ** -30


def cone_system(name):
    if name in CONE_MATRICES:
        return build_system(CONE_MATRICES[name])
    return corpus.load(name)


class NumericCone:
    """The Tits cone from B = -cos(pi/m) evaluated by mpmath, and engine
    scalars evaluated at theta = 2cos(pi/L): an independent route to the
    cone's verdicts for an irreducible system."""

    def __init__(self, system):
        mp.dps = 60
        self.n = system.rank
        self.theta = 2 * mp.cos(mp.pi / system.field.L)
        self.B = mp.matrix([[-1 if m == INF else -mp.cos(mp.pi / m) for m in row]
                            for row in system.matrix])
        values, vectors = mp.eigsy(self.B)
        order = sorted(range(self.n), key=lambda i: values[i])
        low, second = values[order[0]], values[order[1]]
        assert second > TINY
        if low > TINY:
            self.kind = "finite"
        elif abs(low) < TINY:
            self.kind = "affine"
            delta = [vectors[i, order[0]] for i in range(self.n)]
            self.delta = [-d for d in delta] if sum(delta) < 0 else delta
        else:
            self.kind = "hyperbolic"
            self.inverse = self.B ** -1

    def value(self, coords):
        return [sum((mp.mpf(c.numerator) / c.denominator * self.theta ** k
                     for k, c in enumerate(x.coeffs)), mp.mpf(0)) for x in coords]

    def dual_form(self, u, v):
        return sum(u[i] * self.inverse[i, j] * v[j]
                   for i in range(self.n) for j in range(self.n))

    def inside(self, coords):
        """Whether a nonzero point lies in U."""
        x = self.value(coords)
        if self.kind == "finite":
            return True
        if self.kind == "affine":
            return sum(d * c for d, c in zip(self.delta, x)) > TINY
        # timelike, in the sheet of the all-ones point of the chamber
        return (self.dual_form(x, x) < -TINY
                and self.dual_form(x, [1] * self.n) < 0)

    def meets(self, vectors):
        """Whether the span of the vectors meets U outside 0."""
        xs = [self.value(v) for v in vectors]
        if self.kind == "affine":
            return any(abs(sum(d * c for d, c in zip(self.delta, x))) > TINY for x in xs)
        gram = mp.matrix([[self.dual_form(x, y) for y in xs] for x in xs])
        return min(mp.eigsy(gram)[0]) < -TINY


def rational_point(system, rng):
    return point(system, *(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                           for _ in range(system.rank))).coords


@pytest.mark.parametrize("name", CONE_NAMES)
def test_cone_type_matches_the_numeric_form(name):
    system = cone_system(name)
    assert [c.kind for c in cone_components(system)] == [NumericCone(system).kind]


@pytest.mark.parametrize("name", CONE_NAMES)
def test_cone_membership_matches_the_numeric_form(name):
    system = cone_system(name)
    (component,) = cone_components(system)
    numeric = NumericCone(system)
    rng = random.Random(5)
    inside = 0
    for case in range(60):
        if case % 3:
            coords = rational_point(system, rng)
            if not any(coords):
                continue
        else:
            # w(f0) with f0 in the closed chamber lies in U
            f0 = point(system, *(rng.randint(0, 2) for _ in range(system.rank - 1)), 1)
            w = system.normalize([rng.randrange(system.rank) for _ in range(rng.randint(0, 8))])
            coords = f0.transformed_by(w).coords
            assert numeric.inside(coords)
        verdict = component.cone_point([coords]) == coords
        assert verdict == numeric.inside(coords), coords
        inside += verdict
    assert 0 < inside < 60


@pytest.mark.parametrize("name", CONE_NAMES)
def test_cone_points_of_planes_match_the_numeric_form(name):
    # a plane meets U outside 0 iff the dual form takes a timelike value on
    # it (level nonzero for an affine system); the point found lies in U.
    # Planes are spanned by points outside U and -U where such points are
    # common (spacelike ones), so that the Lagrange steps run.  Random planes
    # of an affine system almost never lie at level 0; the level-0 points of
    # the membership test cover that verdict
    system = cone_system(name)
    (component,) = cone_components(system)
    numeric = NumericCone(system)
    rng = random.Random(9)

    def outside_point():
        for _ in range(20):
            coords = rational_point(system, rng)
            if not (numeric.inside(coords) or numeric.inside([-x for x in coords])):
                return coords
        return coords

    found = 0
    for _ in range(30):
        plane = [outside_point(), outside_point()]
        p = component.cone_point(plane)
        assert (p is not None) == numeric.meets(plane), plane
        if p is not None:
            assert numeric.inside(p), plane
            found += 1
    assert found


def test_lagrange_steps_on_a_rational_lorentz_form():
    # the hyperbolic search on the form diag(1, -1, -1), whose lightlike
    # vectors are rational: f is timelike iff f^T form f > 0
    system = build_system(corpus.load("hyperbolic_334").matrix)
    (component,) = cone_components(system)
    component.form = [[Fraction(1), 0, 0], [0, -1, 0], [0, 0, -1]]

    def find(*vectors):
        found = component.cone_point([point(system, *v).coords for v in vectors])
        return found and tuple(x.as_fraction() for x in found)

    assert find((1, 1, 0), (1, -1, 0)) == (2, 0, 0)        # two lightlike vectors
    assert find((-1, -1, 0), (1, -1, 0)) == (2, 0, 0)
    assert find((1, 2, 0), (0, 1, 0)) == (2, 1, 0)         # a spacelike pivot first
    assert find((1, 1, 0)) is None                          # a lightlike line
    assert find((1, 1, 0), (0, 0, 1)) is None               # a tangent plane
    assert find((0, 1, 0), (1, 1, 1)) is None
    assert find((0, 0, 0), (-3, 1, 1)) == (3, -1, -1)       # the future sheet


def test_cone_components_of_products_and_unclassified_systems():
    inf = INF
    product = build_system([[1, inf, 2], [inf, 1, 2], [2, 2, 1]])
    assert [(c.gens, c.kind) for c in cone_components(product)] == [
        ((0, 1), "affine"), ((2,), "finite")]
    # a parabolic with an unbounded label: neither affine nor compact hyperbolic
    noncompact = build_system([[1, 3, inf], [3, 1, 3], [inf, 3, 1]])
    assert [c.kind for c in cone_components(noncompact)] == [None]
    assert noncompact.cache["tits_cone"] is cone_components(noncompact)
