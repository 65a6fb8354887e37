import json
import random
from itertools import product
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
from coxkit.titscone import fundamental_point

RECORDED = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "recorded.json"


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
    assert res.refinements == ()


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
    assert res.refinements == ()


def test_reflection_in_infinite_dihedral(dinf):
    res = pc(ClosureQuery([dinf.element("s")], 6))
    assert res.closure.equals(make(dinf.identity, frozenset({0})))
    assert res.status is ClosureStatus.EXACT


def test_scan_alone_stays_radius_limited(dinf):
    res = scan_closure(ClosureQuery([dinf.element("s")], 6))
    assert res.closure.equals(make(dinf.identity, frozenset({0})))
    assert res.status is ClosureStatus.RADIUS_LIMITED


def test_trivial_fixed_space_certifies_the_whole_group_without_a_scan():
    # a fresh system, so that no other test has filled its candidate cache
    W = build_system(corpus.load("hyperbolic_334").matrix, "abc")
    res = pc(ClosureQuery([W.element("a b c")], 12))
    assert res.closure.describe() == "(e, {a, b, c})"
    assert res.status is ClosureStatus.EXACT
    assert res.refinements == ()
    assert W.cache["closure_candidates"] == {}


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
def test_infinite_groups_build_no_candidate_table(name):
    # a fresh system, so that no other test has enumerated it
    W = build_system(corpus.load(name).matrix)
    for word in ((0,), (0, 1), (1, 0, 1), (2, 0, 1, 0, 1, 1, 2), (1, 2, 1, 0, 1)):
        res = pc(ClosureQuery([W.normalize([s % W.rank for s in word])], 12))
        assert res.status is ClosureStatus.EXACT
    assert W.cache["closure_candidates"] == {}
    assert len(W._bfs_layers) == 1


@pytest.mark.parametrize("name", ["b3", "h3"])
def test_finite_groups_build_no_candidate_table(name):
    # a fresh system: pc's search for the least presentation walks the BFS
    # layers and lists no candidates
    W = build_system(corpus.load(name).matrix)
    for word in ((0,), (0, 1), (1, 0, 1), (2, 0, 1, 0, 1, 1, 2), (1, 2, 1, 0, 1)):
        for radius in (3, 64):
            assert pc(ClosureQuery([W.normalize(word)], radius)).status is ClosureStatus.EXACT
    assert W.cache["closure_candidates"] == {}


@pytest.mark.parametrize("name", corpus.FINITE_NAMES)
def test_finite_presentations_match_the_scan(name):
    # the scan's first containing candidate of the closure's rank is the
    # least presentation pc searches for
    W = corpus.load(name)
    rng = random.Random(64)
    for _ in range(100):
        words = [[rng.randrange(W.rank) for _ in range(rng.randint(0, 10))]
                 for _ in range(rng.randint(1, 2))]
        query = ClosureQuery([W.normalize(word) for word in words], 64)
        assert pc(query).closure.describe() == scan_closure(query).closure.describe(), words


INF = float("inf")


@pytest.mark.parametrize("words, closure, status, steps", [
    (["a"], "(e, {a})", ClosureStatus.RADIUS_LIMITED, 1),
    (["c a c"], "(c, {a})", ClosureStatus.RADIUS_LIMITED, 1),
    (["b a b"], "(a, {b})", ClosureStatus.RADIUS_LIMITED, 1),
    (["b c b a b c b"], "(b c a, {b})", ClosureStatus.RADIUS_LIMITED, 1),
    (["a", "c"], "(e, {a, c})", ClosureStatus.RADIUS_LIMITED, 1),
    (["a b c"], "(e, {a, b, c})", ClosureStatus.EXACT, 0),
])
def test_scan_route_golden(words, closure, status, steps):
    # labels 3, 3 and inf: the cone is not classified, so pc scans at
    # radius 6; only Fix = {0} (the last query) is certified without a scan
    W = build_system([[1, 3, INF], [3, 1, 3], [INF, 3, 1]], "abc")
    res = pc(ClosureQuery([W.element(word) for word in words], 6))
    assert (res.closure.describe(), res.status, len(res.refinements)) == (closure, status, steps)


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


@pytest.mark.parametrize("name, radius", [("b3", 16), ("h3", 16), ("affine_a2", 8)])
def test_candidate_base_points_match_the_dual_action(name, radius):
    W = corpus.load(name)
    candidates, _ = _candidates(W, radius)
    for gens, w, point in candidates:
        assert point == w.act_dual_coords(fundamental_point(W, gens).coords)


@pytest.mark.parametrize("name, radius", [("h3", 16), ("hyperbolic_334", 6)])
def test_candidates_are_listed_in_search_order(name, radius):
    # (rank, length, word, subset): the first containing candidate has least rank
    candidates, _ = _candidates(corpus.load(name), radius)
    keys = [(len(gens), len(w.word), w.word, sorted(gens)) for gens, w, _ in candidates]
    assert keys == sorted(keys) and len(set(map(repr, keys))) == len(keys)


def test_closed_enumeration_shares_one_candidate_table():
    # a fresh system: once radius 16 has closed the BFS, every radius from
    # the longest element's length (15) on lists the whole group, and gets
    # the one table
    W = build_system(corpus.load("h3").matrix, "abc")
    assert _candidates(W, 16) is _candidates(W, 40) is _candidates(W, 15)
    assert _candidates(W, 16)[1] and not _candidates(W, 14)[1]
    assert len({id(table) for table in W.cache["closure_candidates"].values()}) == 2


def test_certified_closure_in_affine_group():
    W = corpus.load("affine_a2")
    res = pc(ClosureQuery([W.element("a b")], 10))
    assert res.closure.describe() == "(e, {a, b})"
    assert res.status is ClosureStatus.EXACT
    assert len(res.refinements) == 1


def test_fixed_space_dimension_is_corank_of_closure(b3):
    # for a finite group, Fix(X) = Fix(Pc(X)) has dimension n - rank Pc(X)
    table = enumerate_group(b3)
    for g in table.elements:
        basis = _fixed_space([g])
        oracle_p, _ = brute_pc(table, [g])
        assert len(basis) == b3.rank - oracle_p.rank
        for v in basis:
            assert g.fixes_dual_coords(v)
            assert any(v)


def test_certificate_disagreeing_with_the_scan_raises(a3, monkeypatch):
    wrong = make(a3.identity, frozenset({0}))
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
    # a fresh system; the search for the least presentation walks at most
    # the cap's number of elements, and this query's lies at length 3
    W = build_system(corpus.load("h3").matrix, "abc")
    monkeypatch.setattr(paraclose, "MAX_CANDIDATES", 5)
    query = ClosureQuery([W.element("a c b a b a c")], 16)
    res = pc(query)
    assert res.status is ClosureStatus.EXACT
    walked = paraclose._certify(W, _fixed_space(query.elements))
    assert res.closure.describe() == walked.describe() != "(a c b, {a})"
    table = enumerate_group(W)
    oracle_p, oracle_m = brute_pc(table, query.elements)
    assert res.closure.equals(oracle_p)
    assert table.subgroup_elements(res.closure) == oracle_m
    with pytest.raises(CandidateTableTooLarge):
        scan_closure(query)
    monkeypatch.undo()
    assert pc(query).closure.describe() == "(a c b, {a})"


def test_refinement_audit_records_actual_refinements(a2):
    res = pc(ClosureQuery([a2.element("s t s")], 8))
    assert len(res.refinements) == 1
    for step in res.refinements:
        assert step.contains(res.closure)
        assert step.contains_element(a2.element("s t s"))


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
