import json
import random
from itertools import combinations, product
from pathlib import Path

import pytest

from coxkit import corpus, paraclose
from coxkit.coxgroup import build_system
from coxkit.errors import (CandidateTableTooLarge, CoxeterError, InvalidQuery,
                           InvariantViolation, MixedSystems)
from coxkit.oracle import brute_pc, enumerate_group
from coxkit.paraclose import (ClosureQuery, ClosureStatus, _candidates,
                              _fixed_space, pc, scan_closure)
from coxkit.parabolic import make
from coxkit.titscone import cone_components, fundamental_point

RECORDED = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "recorded.json"


def _refuse_scan(monkeypatch):
    """Make any call of the candidate scan fail the test."""
    def refuse(system, radius, vectors):
        raise AssertionError("pc fell back to the candidate scan")
    monkeypatch.setattr(paraclose, "_candidates", refuse)


def test_query_validation(a2, b2):
    with pytest.raises(ValueError) as empty:
        ClosureQuery([], 5)
    with pytest.raises(ValueError) as negative:
        ClosureQuery([a2.identity], -1)
    assert isinstance(empty.value, CoxeterError)
    assert isinstance(negative.value, CoxeterError)
    for radius in (2.5, "3", True, None):
        with pytest.raises(InvalidQuery):
            ClosureQuery([a2.generator(0)], radius)
    with pytest.raises(MixedSystems):
        ClosureQuery([a2.identity, b2.identity], 5)


def test_identity_closes_to_trivial_subgroup(a2):
    res = pc(ClosureQuery([a2.identity], 6))
    assert res.closure.rank == 0
    assert res.closure.rep.is_identity
    assert res.status is ClosureStatus.EXACT


def test_single_generator(a3):
    res = pc(ClosureQuery([a3.generator(1)], 8))
    assert res.closure.equals(make(a3.identity, frozenset({1})))
    assert res.status is ClosureStatus.EXACT


def test_conjugate_reflection(a2):
    res = pc(ClosureQuery([a2.element("s t s")], 8))
    assert str(res.closure.rep) == "s"
    assert res.closure.gens == frozenset({1})
    assert res.closure.rank == 1
    assert res.status is ClosureStatus.EXACT


def test_two_generators_close_to_the_whole_group(a2):
    res = pc(ClosureQuery([a2.generator(0), a2.generator(1)], 8))
    assert res.closure.equals(make(a2.identity, frozenset({0, 1})))
    assert res.status is ClosureStatus.EXACT


def test_rotation_in_infinite_dihedral(dinf):
    # Fix(s t) is the level-0 line, which meets the cone of A~1 only in 0
    res = pc(ClosureQuery([dinf.element("s t")], 6))
    assert res.closure.equals(make(dinf.identity, frozenset({0, 1})))
    assert res.status is ClosureStatus.EXACT


def test_reflection_in_infinite_dihedral(dinf):
    res = pc(ClosureQuery([dinf.element("s")], 6))
    assert res.closure.equals(make(dinf.identity, frozenset({0})))
    assert res.status is ClosureStatus.EXACT


def test_scan_alone_stays_radius_limited(dinf):
    # only above its floor: Fix(s) is a line, so the floor is 1 and the
    # rank-1 hit is Pc(s); b c a c on the 3,3,inf triangle has floor 2 and
    # no hit below rank 3 within radius 6
    res = scan_closure(ClosureQuery([dinf.element("s")], 6))
    assert res.closure.equals(make(dinf.identity, frozenset({0})))
    assert res.status is ClosureStatus.EXACT
    W = build_system([[1, 3, INF], [3, 1, 3], [INF, 3, 1]], "abc")
    res = scan_closure(ClosureQuery([W.element("b c a c")], 6))
    assert res.closure.describe() == "(e, {a, b, c})"
    assert res.status is ClosureStatus.RADIUS_LIMITED


def test_trivial_fixed_space_certifies_the_whole_group_without_a_scan(monkeypatch):
    _refuse_scan(monkeypatch)
    W = corpus.load("hyperbolic_334")
    res = pc(ClosureQuery([W.element("a b c")], 12))
    assert res.closure.describe() == "(e, {a, b, c})"
    assert res.status is ClosureStatus.EXACT


@pytest.mark.parametrize("name", corpus.INFINITE_NAMES)
def test_reflections_close_to_themselves(name):
    # Pc(t) = <t> for every reflection t = u s u^-1, |u| <= 4
    W = corpus.load(name)
    reflections = {u * s * u.inverse()
                   for k in range(5) for word in product(range(W.rank), repeat=k)
                   for u in [W.normalize(word)] for s in W.generators}
    for t in reflections:
        res = pc(ClosureQuery([t], 6))
        assert res.status is ClosureStatus.EXACT, t
        assert res.closure.rank == 1 and res.closure.contains_element(t), t


@pytest.mark.parametrize("name", ["hyperbolic_334", "affine_a2"])
def test_recorded_pool_is_certified(name):
    # perfbench's pool of queries the candidate scan left radius-limited:
    # each answer is exact, holds its query and lies inside the recorded
    # closure
    data = json.loads(RECORDED.read_text())
    W = corpus.load(name)
    for entry in data["closures"][name]:
        elements = [W.normalize(tuple(word)) for word in entry["elements"]]
        res = pc(ClosureQuery(elements, data["radius"]))
        recorded = make(W.normalize(tuple(entry["rep"])), entry["gens"])
        assert res.status is ClosureStatus.EXACT, entry
        assert all(res.closure.contains_element(g) for g in elements), entry
        assert recorded.contains(res.closure), entry


@pytest.mark.parametrize("name", corpus.INFINITE_NAMES)
def test_infinite_groups_build_no_candidate_table(name, monkeypatch):
    # a fresh system, so that no other test has enumerated it
    _refuse_scan(monkeypatch)
    W = build_system(corpus.load(name).matrix)
    for word in ((0,), (0, 1), (1, 0, 1), (2, 0, 1, 0, 1, 1, 2), (1, 2, 1, 0, 1)):
        res = pc(ClosureQuery([W.normalize([s % W.rank for s in word])], 12))
        assert res.status is ClosureStatus.EXACT
    assert len(W._bfs_layers) == 1


@pytest.mark.parametrize("name", ["b3", "h3"])
def test_finite_groups_within_the_cap_are_not_walked(name, monkeypatch):
    # pc scans a finite group to its end and never needs the certificate
    def refuse(system, basis):
        raise AssertionError("pc fell back to the certified walks")
    monkeypatch.setattr(paraclose, "_certify", refuse)
    W = corpus.load(name)
    for word in ((0,), (0, 1), (1, 0, 1), (2, 0, 1, 0, 1, 1, 2), (1, 2, 1, 0, 1)):
        for radius in (0, 3, 64):
            assert pc(ClosureQuery([W.normalize(word)], radius)).status is ClosureStatus.EXACT


@pytest.mark.parametrize("name", corpus.FINITE_NAMES)
def test_finite_groups_past_the_cap_fall_back_to_the_certificate(name, monkeypatch):
    # with no parabolic allowed, every finite scan raises at once and pc
    # reports the certified walks' closure: exact, holding X and equal to
    # the oracle's
    monkeypatch.setattr(paraclose, "MAX_CANDIDATES", 0)
    W = corpus.load(name)
    table = enumerate_group(W)
    rng = random.Random(30)
    for _ in range(40):
        elements = [table.elements[rng.randrange(table.order)] for _ in range(rng.randint(1, 3))]
        res = pc(ClosureQuery(elements, 0))
        oracle_p, oracle_m = brute_pc(table, elements)
        assert res.status is ClosureStatus.EXACT, elements
        assert all(res.closure.contains_element(g) for g in elements), elements
        assert table.subgroup_elements(res.closure) == oracle_m, elements
        assert res.closure.equals(oracle_p), elements


@pytest.mark.parametrize("name", corpus.FINITE_NAMES)
def test_finite_presentations_match_the_scan(name):
    # pc's scan to the end of the group gives the radius-64 scan's first
    # hit, the least presentation
    W = corpus.load(name)
    rng = random.Random(64)
    for _ in range(100):
        words = [[rng.randrange(W.rank) for _ in range(rng.randint(0, 10))]
                 for _ in range(rng.randint(1, 2))]
        query = ClosureQuery([W.normalize(word) for word in words], 64)
        assert pc(query).closure.describe() == scan_closure(query).closure.describe(), words


@pytest.mark.parametrize("name, word, radii, expected", [
    ("h3", "a b a b a", (0, 1, 16), "(a b, {a})"),
    ("a2", "s t s", (0, 8), "(s, {t})"),
])
def test_finite_presentation_does_not_depend_on_the_radius(name, word, radii, expected):
    # the scan of a finite group runs to its end, whatever the radius
    W = corpus.load(name)
    for radius in radii:
        assert pc(ClosureQuery([W.element(word)], radius)).closure.describe() == expected


INF = float("inf")


@pytest.mark.parametrize("words, closure, status, floor", [
    (["a"], "(e, {a})", ClosureStatus.EXACT, 1),
    (["c a c"], "(c, {a})", ClosureStatus.EXACT, 1),
    (["b a b"], "(a, {b})", ClosureStatus.EXACT, 1),
    (["b c b a b c b"], "(b c a, {b})", ClosureStatus.EXACT, 1),
    (["a", "c"], "(e, {a, c})", ClosureStatus.EXACT, 2),
    (["a b c"], "(e, {a, b, c})", ClosureStatus.EXACT, 3),
    (["b c a c"], "(e, {a, b, c})", ClosureStatus.RADIUS_LIMITED, 2),
])
def test_scan_route_golden(words, closure, status, floor):
    # labels 3, 3 and inf: the cone is not classified, so pc scans at
    # radius 6; only Fix = {0} (a b c) is certified without a scan.  floor is
    # n - dim Fix(X), the least rank a containing parabolic can have: every
    # scan but b c a c's stops there, which certifies its hit.  An exact hit
    # is the radius-12 scan's first hit too
    W = build_system([[1, 3, INF], [3, 1, 3], [INF, 3, 1]], "abc")
    elements = [W.element(word) for word in words]
    res = pc(ClosureQuery(elements, 6))
    assert (res.closure.describe(), res.status) == (closure, status)
    assert W.rank - len(_fixed_space(elements)[1]) == floor
    assert all(res.closure.contains_element(g) for g in elements)
    if status is ClosureStatus.EXACT:
        assert scan_closure(ClosureQuery(elements, 12)).closure.describe() == closure


@pytest.mark.parametrize("matrix, words, expected", [
    # A~1 x A~1 on a, b | c, d: a rotation's fixed space meets the cone of
    # its factor only in 0, so its closure is that whole factor
    ([[1, INF, 2, 2], [INF, 1, 2, 2], [2, 2, 1, INF], [2, 2, INF, 1]],
     ["a b"], "(e, {a, b})"),
    ([[1, INF, 2, 2], [INF, 1, 2, 2], [2, 2, 1, INF], [2, 2, INF, 1]],
     ["a b", "c"], "(e, {a, b, c})"),
    ([[1, INF, 2, 2], [INF, 1, 2, 2], [2, 2, 1, INF], [2, 2, INF, 1]],
     ["a c"], "(e, {a, c})"),
    ([[1, INF, 2, 2], [INF, 1, 2, 2], [2, 2, 1, INF], [2, 2, INF, 1]],
     ["b a b", "c d c"], 2),
    ([[1, INF, 2, 2], [INF, 1, 2, 2], [2, 2, 1, INF], [2, 2, INF, 1]],
     ["a b c d"], "(e, {a, b, c, d})"),
    # A~1 x A2
    ([[1, INF, 2, 2], [INF, 1, 2, 2], [2, 2, 1, 3], [2, 2, 3, 1]],
     ["a b", "c d"], "(e, {a, b, c, d})"),
    ([[1, INF, 2, 2], [INF, 1, 2, 2], [2, 2, 1, 3], [2, 2, 3, 1]],
     ["a b a", "d c d"], 2),
])
def test_closures_in_reducible_systems(matrix, words, expected):
    W = build_system(matrix)
    elements = [W.element(word) for word in words]
    res = pc(ClosureQuery(elements, 6))
    assert res.status is ClosureStatus.EXACT
    assert all(res.closure.contains_element(g) for g in elements)
    assert scan_closure(ClosureQuery(elements, 6)).closure.contains(res.closure)
    if isinstance(expected, str):
        assert res.closure.describe() == expected
    else:
        assert res.closure.rank == expected


def _system(name):
    if name == "triangle":
        return build_system([[1, 3, INF], [3, 1, 3], [INF, 3, 1]], "abc")
    return corpus.load(name)


@pytest.mark.parametrize("name, radius", [("b3", 16), ("h3", 16), ("affine_a2", 8),
                                          ("triangle", 6)])
def test_candidate_base_points_match_the_dual_action(name, radius):
    # I_w, read off the supports of w^{-1}(a), is the set of s whose base
    # point w(omega_s) of w W_{S - {s}} w^{-1} some x in X moves
    W = _system(name)
    omegas = [fundamental_point(W, [t for t in range(W.rank) if t != s]).coords
              for s in range(W.rank)]
    rng = random.Random(31)
    for _ in range(3):
        elements = [W.normalize([rng.randrange(W.rank) for _ in range(rng.randint(1, 6))])
                    for _ in range(rng.randint(1, 2))]
        for w, I in _candidates(W, radius, _fixed_space(elements)[0]):
            moved = [s for s, omega in enumerate(omegas)
                     if not all(g.fixes_dual_coords(w.act_dual_coords(omega)) for g in elements)]
            assert I == moved, (elements, w)


@pytest.mark.parametrize("name, radius", [("h3", 16), ("hyperbolic_334", 6)])
def test_candidates_are_listed_in_search_order(name, radius):
    # (length, word), each element once and none longer than the radius
    W = corpus.load(name)
    rows = _fixed_space([W.generator(0)])[0]
    keys = [(w.length, w.word) for w, _ in _candidates(W, radius, rows)]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert max(length for length, _ in keys) <= radius


def test_closed_enumeration_shares_one_candidate_table():
    # a fresh system: once radius 16 has closed the BFS, every radius from
    # the longest element's length (15) on lists the whole group, and a
    # shorter radius lists less
    W = build_system(corpus.load("h3").matrix, "abc")
    rows = _fixed_space([W.element("a b")])[0]

    def listed(radius):
        return list(_candidates(W, radius, rows))

    assert listed(16) == listed(40) == listed(15)
    assert len(listed(16)) == 120 and len(listed(14)) == 119


def test_floor_hit_before_the_cap_answers():
    # the scan counts each layer as it reaches it: a b on the 3,3,inf
    # triangle hits its floor at w = e, though by radius 40 the count passes
    # the cap (at length 14)
    W = _system("triangle")
    res = pc(ClosureQuery([W.element("a b")], 40))
    assert (res.closure.describe(), res.status) == ("(e, {a, b})", ClosureStatus.EXACT)


def _first_hit(elements, radius):
    """The first (w, I), w coset-minimal of length <= radius, in (rank,
    length, word, subset) order whose parabolic contains every element: each
    fixes its base point w(f_I), one subset at a time."""
    W = elements[0].system
    layers, _ = W.elements_up_to(radius)
    for size in range(W.rank + 1):
        for w in [w for layer in layers for w in layer]:
            for I in combinations(range(W.rank), size):
                if w.right_descents.isdisjoint(I):
                    base = fundamental_point(W, I).transformed_by(w).coords
                    if all(g.fixes_dual_coords(base) for g in elements):
                        return make(w, I)


def test_scan_matches_the_brute_force_first_hit():
    # seeded rank-3 and rank-4 systems whose cone is not classified, at
    # radius 3: the scan's one subset per w gives the first containing
    # (w, I) of the full listing
    rng = random.Random(26)
    systems = []
    while len(systems) < 6:
        n = 3 + len(systems) % 2
        m = [[1] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            m[i][j] = m[j][i] = rng.choice([2, 3, 3, 4, 6, INF])
        W = build_system(m)
        if any(c.kind is None for c in cone_components(W)):
            systems.append(W)
    for W in systems:
        for _ in range(10):
            elements = [W.normalize([rng.randrange(W.rank) for _ in range(rng.randint(0, 6))])
                        for _ in range(rng.randint(1, 2))]
            res = scan_closure(ClosureQuery(elements, 3))
            assert res.closure.describe() == _first_hit(elements, 3).describe(), elements


def test_certified_closure_in_affine_group():
    W = corpus.load("affine_a2")
    res = pc(ClosureQuery([W.element("a b")], 10))
    assert res.closure.describe() == "(e, {a, b})"
    assert res.status is ClosureStatus.EXACT


def test_fixed_space_dimension_is_corank_of_closure(b3):
    # for a finite group, Fix(X) = Fix(Pc(X)) has dimension n - rank Pc(X)
    table = enumerate_group(b3)
    for g in table.elements:
        basis = _fixed_space([g])[1]
        oracle_p, _ = brute_pc(table, [g])
        assert len(basis) == b3.rank - oracle_p.rank
        for v in basis:
            assert g.fixes_dual_coords(v)
            assert any(v)


def test_certificate_disagreeing_with_the_scan_raises(a3, monkeypatch):
    # a finite group reaches the certificate only past the scan's cap
    wrong = make(a3.identity, frozenset({0}))
    monkeypatch.setattr(paraclose, "MAX_CANDIDATES", 0)
    monkeypatch.setattr(paraclose, "_certify", lambda system, basis: wrong)
    with pytest.raises(InvariantViolation):
        pc(ClosureQuery([a3.generator(2)], 8))


def test_descent_that_fixes_too_little_raises(monkeypatch):
    monkeypatch.setattr(paraclose, "_intersect_stabilizer",
                        lambda p, coords, either_sign: p)
    W = corpus.load("hyperbolic_334")
    with pytest.raises(InvariantViolation):
        pc(ClosureQuery([W.element("a")], 6))


def test_finite_group_past_the_candidate_cap_reports_the_certified_closure(monkeypatch):
    # a fresh system; the scan counts 7 parabolics at w = e, past a cap of
    # 5, so pc reports the walked presentation; the least one lies at length 3
    W = build_system(corpus.load("h3").matrix, "abc")
    monkeypatch.setattr(paraclose, "MAX_CANDIDATES", 5)
    query = ClosureQuery([W.element("a c b a b a c")], 16)
    res = pc(query)
    assert res.status is ClosureStatus.EXACT
    walked = paraclose._certify(W, _fixed_space(query.elements)[1])
    assert res.closure.describe() == walked.describe() != "(a c b, {a})"
    table = enumerate_group(W)
    oracle_p, oracle_m = brute_pc(table, query.elements)
    assert res.closure.equals(oracle_p)
    assert table.subgroup_elements(res.closure) == oracle_m
    with pytest.raises(CandidateTableTooLarge):
        scan_closure(query)
    monkeypatch.undo()
    assert pc(query).closure.describe() == "(a c b, {a})"


def test_matches_brute_force_oracle(b2):
    table = enumerate_group(b2)
    for g in table.elements:
        res = pc(ClosureQuery([g], 16))
        oracle_p, oracle_m = brute_pc(table, [g])
        assert res.closure.equals(oracle_p)
        assert table.subgroup_elements(res.closure) == oracle_m


def test_brute_pc_examples(a2):
    table = enumerate_group(a2)
    p, members = brute_pc(table, [a2.element("s t s")])
    names = {str(table.elements[i]) for i in members}
    assert names == {"e", "s t s"}
    _, trivial = brute_pc(table, [a2.identity])
    assert trivial == frozenset({table.element_index(a2.identity)})
