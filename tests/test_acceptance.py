"""Acceptance gate: every mathematical guarantee of the library, checked
mechanically at desk scale against independent computations.

Each test runs one verification suite (shared with `coxkit verify`) and
prints a single pass/fail line; the three suites with runtime budgets assert
them.  Failures carry the suite's own failure messages.  Each suite's number
of checks is pinned, so a change that drops or double-counts checks fails
here instead of passing with fewer of them.
"""

import inspect

from coxkit.verify import SUITES, run_suites


def _run(name: str, checks: int, budget: float | None = None) -> None:
    result = SUITES[name]()
    state = "pass" if result.passed else "FAIL"
    print(f"[{state}] {name}: {result.checks} checks, "
          f"{len(result.failures)} failures, {result.seconds:.1f}s")
    assert result.passed, "\n".join(result.failures[:25])
    assert result.checks == checks, f"{name} made {result.checks} checks, not {checks}"
    if budget is not None:
        assert result.seconds < budget, \
            f"{name} took {result.seconds:.1f}s (budget {budget}s)"


def test_criterion_01_faithful_representation():
    """Distinct canonical words carry distinct matrices in A2, B2, G2, A3,
    B3, H3 (orders 6, 8, 12, 24, 48, 120), within 30 seconds."""
    _run("faithful-representation", 451, budget=30.0)


def test_criterion_02_product_orders():
    """order_of_product(s, t) = m_st for every generator pair of every
    corpus group, with exact identity at the stated power."""
    _run("product-orders", 78)


def test_criterion_03_root_dichotomy():
    """Every root through depth 8 in all ten corpus groups is one-signed."""
    _run("root-dichotomy", 381)


def test_criterion_04_length_versus_root_sign():
    """l(w t_alpha) > l(w) exactly when w maps alpha to a positive root,
    exhaustively over the finite corpus groups, the two sides computed
    through independent routes."""
    _run("length-vs-root-sign", 2506)


def test_criterion_05_subsystem_roots():
    """Roots supported inside a generator subset are exactly the roots of
    the subsystem on that subset (depth-6 truncations for the infinite
    groups), and descend_root round-trips on each."""
    _run("subsystem-roots", 142)


def test_criterion_06_pairwise_intersection():
    """intersect agrees with literal set intersection on all pairs of
    distinct parabolics of A3 and B3, within 120 seconds."""
    _run("pairwise-intersection", 762, budget=120.0)


def test_criterion_07_conjugate_generator_sets():
    """Conjugate parabolic pairs found by brute force always have equal
    rank and an exact simple-root matching witness."""
    _run("conjugate-generator-sets", 176)


def test_criterion_08_rank_drop_on_incomparable_pairs():
    """Intersections of incomparable parabolics of A3 and B3 drop rank."""
    _run("rank-drop", 255)


def test_criterion_09_parabolic_closure_matches_oracle():
    """pc, which certifies the closure and scans candidates only to choose a
    finite group's presentation, equals the brute-force closure (with
    minimal-rank uniqueness) on 200 random subsets per finite corpus group."""
    _run("parabolic-closure", 1400)


def test_criterion_10_infinite_group_closure():
    """Infinite dihedral: the rotation closes to the whole group with an
    audit of length at most 2 and a reflection to itself, both certified
    exact, within 5 seconds."""
    _run("infinite-closure", 2, budget=5.0)


def test_criterion_11_cone_stabilizers():
    """stabilizer(w(f_I)) equals the conjugated standard subgroup and
    locate recovers the dominant representative, 100 random pairs per
    corpus group."""
    _run("cone-stabilizers", 1000)


def test_criterion_12_exact_arithmetic_kernel():
    """Ring axioms and sign consistency on 1000 random scalars per corpus
    field, with the minimal polynomial vanishing exactly at theta."""
    _run("kernel", 18025)


def test_criterion_13_certified_closure():
    """In the three infinite corpus groups, every closure is certified
    exact, contains its query and lies inside the scan-only closure at
    radius 12."""
    _run("certified-closure", 24)


def test_suites_take_no_parameters():
    """Seeds and case counts are fixed inside the suites: a suite is called
    with no arguments and run_suites takes only the suite names."""
    assert all(not inspect.signature(suite).parameters for suite in SUITES.values())
    assert list(inspect.signature(run_suites).parameters) == ["names"]
