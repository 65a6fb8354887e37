from fractions import Fraction

import pytest

from coxkit import corpus
from coxkit.errors import (CoxeterError, DimensionMismatch, InvalidQuery, MixedFields,
                           NotARoot, RootSignViolation, StepCapExceeded,
                           SupportNotContained, UnknownGenerator)
from coxkit.roots import (Root, descend_root, enumerate_roots,
                          reflection_matrix, reflection_of_root, root_of,
                          root_depths, simple_root)


def rational_root(system, *values):
    return Root(system, tuple(system.field.from_rational(Fraction(v))
                              for v in values))


# -- dichotomy at the type level -------------------------------------------------


def test_mixed_sign_vector_rejected(a2):
    with pytest.raises(RootSignViolation):
        rational_root(a2, 1, -1)


def test_signs(a2):
    assert rational_root(a2, 1, 1).is_positive()
    assert not rational_root(a2, -1, 0).is_positive()
    assert (-rational_root(a2, 1, 0)) == rational_root(a2, -1, 0)


def test_rational_coordinates_are_converted(a2):
    assert Root(a2, (1, 1)) == rational_root(a2, 1, 1)
    assert Root(a2, (0, Fraction(-1))).sign == -1
    with pytest.raises(RootSignViolation):
        Root(a2, (1, -1))


def test_coordinates_outside_the_field_rejected(a2, b2):
    with pytest.raises(MixedFields):
        Root(a2, simple_root(b2, 0).coords)
    for bad in ((1.0, 0), (1, "1")):
        with pytest.raises(CoxeterError):
            Root(a2, bad)


@pytest.mark.parametrize("coords", [(1,), (1, 1, 1), ()])
def test_wrong_coordinate_count_rejected(a2, coords):
    with pytest.raises(DimensionMismatch):
        Root(a2, coords)


@pytest.mark.parametrize("coords, shown", [((0, 0), "(0, 0)"),
                                           ((1, Fraction(-1, 2)), "(1, -1/2)")])
def test_mixed_sign_message_shows_values(a2, coords, shown):
    with pytest.raises(RootSignViolation) as info:
        Root(a2, coords)
    assert str(info.value) == f"coordinates {shown} are not one-signed"


# -- roots attached to elements ---------------------------------------------------


@pytest.mark.parametrize("make_root", [
    simple_root, lambda W, s: root_of(W.element("s"), s),
    lambda W, s: W.basis_vector(s),
], ids=["simple_root", "root_of", "basis_vector"])
@pytest.mark.parametrize("index", ["a", None, True, False, 1.5, -1, 2])
def test_bad_generator_index_is_typed(a2, make_root, index):
    with pytest.raises(UnknownGenerator):
        make_root(a2, index)


def test_identity_gives_simple_root(a2):
    assert root_of(a2.identity, 0) == simple_root(a2, 0)


def test_root_of_neighbour(a2):
    assert root_of(a2.generator(0), 1) == rational_root(a2, 1, 1)


def test_root_of_own_generator_is_negative(a2):
    r = root_of(a2.generator(0), 0)
    assert r == rational_root(a2, -1, 0)
    assert not r.is_positive()


# -- reflections ------------------------------------------------------------------


def test_reflection_of_simple_root(a2):
    refl = reflection_of_root(simple_root(a2, 0))
    assert refl.element == a2.generator(0)


def test_reflection_of_highest_root(a2):
    refl = reflection_of_root(rational_root(a2, 1, 1))
    assert str(refl.element) == "s t s"


def test_reflection_in_infinite_dihedral(dinf):
    root = rational_root(dinf, 3, 2)
    refl = reflection_of_root(root)
    assert str(refl.element) == "s t s t s"
    assert refl.element.length == 5


def test_reflection_rejects_negative_root(a2):
    with pytest.raises(NotARoot):
        reflection_of_root(rational_root(a2, -1, 0))


def test_reflection_rejects_non_unit_vector(a2):
    with pytest.raises(NotARoot):
        reflection_of_root(rational_root(a2, 2, 0))


@pytest.mark.parametrize("name, values", [
    ("a2", (Fraction(8, 7), Fraction(3, 7))),
    ("affine_a2", (Fraction(3, 2), Fraction(1, 2), Fraction(1, 2))),
    # the walk of T(rho) reaches rho here, so only the matrix check rejects it
    ("dihedral_inf", (Fraction(3, 2), Fraction(1, 2))),
])
def test_reflection_rejects_unit_norm_non_root(name, values):
    # positive and of norm 1: past the sign and norm checks
    vector = rational_root(corpus.load(name), *values)
    assert vector.is_positive() and vector.norm() == 1
    with pytest.raises(NotARoot):
        reflection_of_root(vector)


def test_reflection_words_match_matrix_route(walk_systems):
    # reference: the descent recursion on the columns of the reflection matrix
    for name, system in walk_systems.items():
        for root in enumerate_roots(system, 6):
            word = system._word_from_inverse_matrix(reflection_matrix(root))
            assert reflection_of_root(root).element.word == word, (name, root)


def test_reflections_are_involutions(b2):
    for root in enumerate_roots(b2, 8):
        g = reflection_of_root(root).element
        assert (g * g).is_identity
        assert g.inverse() == g


# -- enumeration -------------------------------------------------------------------


def test_depth_zero_gives_simple_roots(b3):
    found = root_depths(b3, 0)
    assert set(found) == {simple_root(b3, s) for s in range(b3.rank)}
    assert all(d == 0 for d in found.values())


def test_positive_root_counts():
    expected = {"a2": 3, "b2": 4, "g2": 6, "a1xa1": 2,
                "a3": 6, "b3": 9, "h3": 15}
    for name, count in expected.items():
        system = corpus.load(name)
        assert len(root_depths(system, 32)) == count, name


def test_depth_matches_reflection_length(b2):
    for root, depth in root_depths(b2, 32).items():
        assert reflection_of_root(root).element.length == 2 * depth + 1


def test_enumeration_is_sorted_and_stable(a3):
    roots = enumerate_roots(a3, 8)
    keys = [tuple(c.coeffs for c in r.coords) for r in roots]
    assert keys == sorted(keys)
    assert roots == enumerate_roots(a3, 8)


@pytest.mark.parametrize("enumerate_", [root_depths, enumerate_roots])
@pytest.mark.parametrize("depth", [True, -1, 2.5, "3"])
def test_bad_depth_is_typed(b3, enumerate_, depth):
    # True would run one layer, and -1 return the simple roots
    with pytest.raises(InvalidQuery):
        enumerate_(b3, depth)


def test_truncated_enumeration_grows(dinf):
    assert len(root_depths(dinf, 2)) == 6
    assert len(root_depths(dinf, 3)) == 8


# -- descent through a subsystem ---------------------------------------------------


def test_descend_simple_root(a2):
    u, s = descend_root(simple_root(a2, 0), {0, 1})
    assert u.is_identity and s == 0


def test_descend_highest_root(a2):
    u, s = descend_root(rational_root(a2, 1, 1), {0, 1})
    assert u == a2.generator(0)
    assert s == 1
    assert u.act(a2.basis_vector(s)) == rational_root(a2, 1, 1).coords


def test_descend_requires_support(a2):
    with pytest.raises(SupportNotContained):
        descend_root(rational_root(a2, 1, 1), {0})


def test_descend_rejects_negative(a2):
    with pytest.raises(RootSignViolation):
        descend_root(rational_root(a2, -1, 0), {0, 1})


def test_descend_round_trips_everywhere(b3):
    full = frozenset(range(b3.rank))
    for root in enumerate_roots(b3, 32):
        u, s = descend_root(root, full)
        assert set(u.word) <= full and s in full
        assert u.act(b3.basis_vector(s)) == root.coords


def test_descend_stops_at_its_step_cap(b3, monkeypatch):
    # the highest root lies in the last layer, three steps from a simple root
    depths = root_depths(b3, 32)
    highest = max(depths, key=depths.get)
    monkeypatch.setattr("coxkit.roots._REFLECTION_WORD_CAP", 1)
    with pytest.raises(StepCapExceeded):
        descend_root(highest, range(b3.rank))


def test_subsystem_restriction(a3):
    # roots of the subsystem on {a, b} are the A2 roots inside A3
    sub = root_depths(a3, 8, gens={0, 1})
    assert len(sub) == 3
    assert all(r.support <= {0, 1} for r in sub)
