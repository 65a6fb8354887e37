from fractions import Fraction

import pytest

from coxkit import corpus
from coxkit.errors import (DimensionMismatch, InvalidQuery, MixedSystems,
                           StepCapExceeded)
from coxkit.oracle import enumerate_group
from coxkit.parabolic import make
from coxkit.titscone import (DualPoint, fundamental_point, locate, stabilizer)


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


def test_negative_step_cap_rejected(a3):
    with pytest.raises(InvalidQuery):
        locate(fundamental_point(a3, frozenset({0})), step_cap=-1)


def test_point_outside_the_cone_is_detected(dinf):
    with pytest.raises(StepCapExceeded):
        locate(point(dinf, -1, -1))


def test_mixed_systems(a2, b2):
    with pytest.raises(MixedSystems):
        fundamental_point(a2, frozenset()).transformed_by(b2.generator(0))


# -- stabilizers --------------------------------------------------------------------


def test_origin_is_stabilized_by_everything(a2):
    P = stabilizer(point(a2, 0, 0))
    assert P.rank == 2
    assert P.rep.is_identity


def test_wall_point_stabilizer(a2):
    P = stabilizer(fundamental_point(a2, frozenset({0})))
    assert P.equals(make(a2.identity, frozenset({0})))


def test_stabilizer_of_transformed_point():
    system = corpus.load("g2")
    w = system.element("s t s")
    I = frozenset({1})
    f = fundamental_point(system, I).transformed_by(w)
    assert stabilizer(f).equals(make(w, I))
