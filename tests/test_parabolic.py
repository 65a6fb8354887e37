import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxkit import corpus
from coxkit.errors import InvalidQuery, MixedSystems
from coxkit.oracle import enumerate_group
from coxkit.paraclose import ClosureQuery
from coxkit.parabolic import (conjugacy_normalize, intersect, make)
from coxkit.titscone import fundamental_point, locate


def full(system):
    return frozenset(range(system.rank))


@pytest.mark.parametrize("call", [
    lambda W: ClosureQuery([5], 3),
    lambda W: ClosureQuery([W.identity, "s"], 3),
    lambda W: make(5, [0]),
    lambda W: make((0,), [0]),
    lambda W: intersect(5, 5),
    lambda W: intersect(make(W.identity, [0]), W.identity),
    lambda W: locate(5),
    lambda W: locate((1, 1)),
    lambda W: fundamental_point(W, [0]).transformed_by(5),
], ids=["query-int", "query-str", "make-int", "make-tuple", "intersect-ints",
        "intersect-element", "locate-int", "locate-tuple", "transformed-by-int"])
def test_argument_of_the_wrong_kind_is_invalid_query(a2, call):
    # an element, parabolic or point of another type: a typed error, not a
    # bare AttributeError
    with pytest.raises(InvalidQuery):
        call(a2)


# -- coset-minimal representatives ------------------------------------------------


def test_generator_inside_its_own_subgroup(a2):
    P = make(a2.generator(0), frozenset({0}))
    assert P.rep.is_identity
    assert P.gens == frozenset({0})


def test_representative_shortens(a2):
    P = make(a2.element("s t"), frozenset({1}))
    assert str(P.rep) == "s"


def test_full_subset_always_has_identity_representative(a2):
    P = make(a2.element("t s"), full(a2))
    assert P.rep.is_identity
    assert P.rank == 2


def strip_right_descents(w, I):
    """Reference route to the shortest element of w*W_I: strip the smallest
    right descent in I until none is left."""
    while True:
        descents = w.right_descents & I
        if not descents:
            return w
        w = w * w.system.generator(min(descents))


@given(st.data())
def test_make_matches_descent_stripping(walk_systems, data):
    system = walk_systems[data.draw(st.sampled_from(sorted(walk_systems)))]
    gens = st.integers(0, system.rank - 1)
    w = system.normalize(data.draw(st.lists(gens, max_size=20)))
    I = frozenset(data.draw(st.sets(gens)))
    P = make(w, I)
    assert P.rep is strip_right_descents(w, I)
    assert P.gens == I
    assert P.base_point == fundamental_point(system, I).transformed_by(w)


# -- membership ---------------------------------------------------------------------


def test_conjugate_membership(a2):
    P = make(a2.generator(0), frozenset({1}))
    assert P.contains_element(a2.element("s t s"))


def test_trivial_subgroup_contains_only_identity(a2):
    P = make(a2.identity, frozenset())
    table = enumerate_group(a2)
    members = [g for g in table.elements if P.contains_element(g)]
    assert members == [a2.identity]


def test_membership_negative(a2):
    P = make(a2.identity, frozenset({0}))
    assert not P.contains_element(a2.generator(1))


def test_membership_cross_checked_against_words(a3):
    # reference: g lies in rep W_I rep^{-1} iff the canonical word of
    # rep^{-1} g rep uses only letters of I
    table = enumerate_group(a3)
    for P, members in table.parabolics():
        rep_inv = P.rep.inverse()
        for i, g in enumerate(table.elements):
            by_words = set((rep_inv * g * P.rep).word) <= P.gens
            assert P.contains_element(g) == by_words == (i in members)


def test_membership_mixed_systems(a2, b2):
    P = make(a2.identity, frozenset({0}))
    with pytest.raises(MixedSystems):
        P.contains_element(b2.generator(0))


# -- containment and equality ---------------------------------------------------------


def test_equals_absorbs_representative_from_subgroup(a2):
    assert make(a2.generator(0), frozenset({0})).equals(
        make(a2.identity, frozenset({0})))


def test_standard_containment(a3):
    assert make(a3.identity, frozenset({0, 1})).contains(
        make(a3.identity, frozenset({1})))


def test_conjugate_is_not_the_standard_subgroup(a2):
    assert not make(a2.generator(0), frozenset({1})).equals(
        make(a2.identity, frozenset({1})))


def test_containment_matches_sets(b3):
    table = enumerate_group(b3)
    paras = table.parabolics()
    for p, mp in paras[:12]:
        for q, mq in paras[:12]:
            assert p.contains(q) == (mq <= mp)


# -- intersection -----------------------------------------------------------------------


def test_intersection_idempotent(a3):
    P = make(a3.element("a b"), frozenset({0, 2}))
    assert intersect(P, P).equals(P)


def test_standard_intersection(a3):
    P = make(a3.identity, frozenset({0, 1}))
    Q = make(a3.identity, frozenset({1, 2}))
    R = intersect(P, Q)
    assert R.rep.is_identity
    assert R.gens == frozenset({1})


def test_disjoint_reflections_intersect_trivially(a2):
    R = intersect(make(a2.identity, frozenset({0})),
                  make(a2.identity, frozenset({1})))
    assert R.rank == 0
    assert R.rep.is_identity


def test_trivial_intersection_has_identity_representative(dinf):
    # the walk ends at rep1 * u = t s t s t s, but every conjugate of the
    # trivial group is trivial
    R = intersect(make(dinf.element("t s t s t s"), frozenset({1})),
                  make(dinf.element("t"), frozenset()))
    assert R.describe() == "(e, {})"


def test_intersection_matches_brute_force(a3):
    table = enumerate_group(a3)
    paras = table.parabolics()
    for p, mp in paras:
        for q, mq in paras:
            got = table.subgroup_elements(intersect(p, q))
            assert got == mp & mq


INFINITE_GROUPS = ("dihedral_inf", "affine_a2", "hyperbolic_334")


def seeded_pairs(system, seed, count=12):
    """Pairs (P, Q) of parabolics of rank >= 1 (Q may have rank 0 when it
    lies in P) with reps of length <= 5.  One pair in three has Q inside P,
    as P.rep * u W_J u^-1 P.rep^-1 with u in W_I and J a subset of I, and
    one in three is w W_I w^-1, w W_K w^-1 for two distinct subsets of n - 1
    generators, which meet in n - 2."""
    rng = random.Random(seed)
    n = system.rank

    def subset(pool, least):
        pool = sorted(pool)
        return frozenset(rng.sample(pool, rng.randint(least, len(pool))))

    def word(pool, length):
        return tuple(rng.choice(pool) for _ in range(length))

    def random_parabolic():
        return make(system.normalize(word(range(n), rng.randint(0, 5))),
                    subset(range(n), 1))

    pairs = []
    for k in range(count):
        P = random_parabolic()
        if k % 3 == 1:
            u = word(sorted(P.gens), rng.randint(0, 4))
            Q = make(system.normalize(P.rep.word + u), subset(P.gens, 0))
        elif k % 3 == 2:
            I, K = rng.sample(list(combinations(range(n), n - 1)), 2)
            P, Q = make(P.rep, I), make(P.rep, K)
        else:
            Q = random_parabolic()
        pairs.append((P, Q))
    return pairs


@pytest.mark.parametrize("name", INFINITE_GROUPS)
def test_intersection_in_infinite_groups(name):
    # membership by fixed points is independent of the walk in intersect;
    # seed 4 draws pairs for which a walk with generators outside I errs
    system = corpus.load(name)
    layers, _ = system.elements_up_to(6)
    elements = [g for layer in layers for g in layer]
    for P, Q in seeded_pairs(system, seed=4):
        for A, B in ((P, Q), (Q, P)):
            R = intersect(A, B)
            for g in elements:
                assert R.contains_element(g) == (
                    A.contains_element(g) and B.contains_element(g)), (A, B, g)


@pytest.mark.parametrize("name", INFINITE_GROUPS)
def test_containment_by_roots_matches_generators(name):
    system = corpus.load(name)
    for P, Q in seeded_pairs(system, seed=7):
        for A, B in ((P, Q), (Q, P)):
            rep_inv = B.rep.inverse()
            by_generators = all(A.contains_element(B.rep * system.generator(s) * rep_inv)
                                for s in B.gens)
            assert A.contains(B) == by_generators, (A, B)


# -- conjugate generator subsets ----------------------------------------------------------


def test_identity_witness(a3):
    I = frozenset({0, 1})
    witness = conjugacy_normalize(a3, I, I, a3.identity)
    assert witness is not None
    assert str(witness.w0) == "e"
    assert witness.mapping == {0: 0, 1: 1}


def test_conjugate_reflections_in_a2(a2):
    witness = conjugacy_normalize(a2, frozenset({0}), frozenset({1}),
                                  a2.element("t s"))
    assert witness is not None
    assert str(witness.w0) == "t s"
    assert witness.mapping == {1: 0}
    # a longer element of the same coset gives the same witness
    again = conjugacy_normalize(a2, frozenset({0}), frozenset({1}),
                                a2.element("t s t"))
    assert again is not None and again.w0 == witness.w0


def test_commuting_generators_are_not_conjugate():
    system = corpus.load("a1xa1")
    table = enumerate_group(system)
    for w in table.elements:
        assert conjugacy_normalize(system, frozenset({0}), frozenset({1}),
                                   w) is None


def test_refutation_for_wrong_rank(a2):
    assert conjugacy_normalize(a2, frozenset({0, 1}), frozenset({1}),
                               a2.identity) is None
