"""Machine-checkable property suites over the built-in corpus.

Each suite checks one guarantee of the library against an independent
computation (brute-force enumeration, literal set arithmetic, or interval
numerics) and reports the number of checks and any failures.  The suites are
deterministic: sorted iteration orders, and the suites that draw random cases
(kernel, parabolic-closure, certified-closure, cone-stabilizers) seed their
generators with literals in their own bodies, so every run checks the same
cases.  A suite is called with no arguments; run_suites runs them by name.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

from . import corpus
from .coxgroup import _first_sign, order_of_product
from .errors import InvariantViolation, NotAParabolic
from .oracle import brute_pc, enumerate_group
from .parabolic import conjugacy_normalize, intersect, make
from .paraclose import ClosureQuery, ClosureStatus, pc, scan_closure
from .roots import descend_root, reflection_of_root, root_depths
from .scalar import FieldContext, double_cosine_poly
from .titscone import fundamental_point, locate, stabilizer

EXPECTED_ORDERS = {"a2": 6, "b2": 8, "g2": 12, "a1xa1": 4,
                   "a3": 24, "b3": 48, "h3": 120}
EXPECTED_POSITIVE_ROOTS = {"a2": 3, "b2": 4, "g2": 6, "a1xa1": 2,
                           "a3": 6, "b3": 9, "h3": 15}


class SuiteResult:
    __slots__ = ("name", "checks", "failures", "seconds")

    def __init__(self, name: str, checks: int, failures: list[str], seconds: float):
        self.name = name
        self.checks = checks
        self.failures = failures
        self.seconds = seconds

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        state = "ok" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return f"{self.name}: {self.checks} checks, {state} [{self.seconds:.1f}s]"


SUITES = {}


def _suite(name: str):
    """Register a suite body under name in SUITES, in definition order.

    The body is called with check(ok, message) -> ok, which counts one check
    and records message when ok is false.  The registered callable takes no
    arguments, times the body and returns its SuiteResult.
    """
    def register(body):
        def run() -> SuiteResult:
            result = SuiteResult(name, 0, [], 0.0)

            def check(ok: bool, message: str) -> bool:
                result.checks += 1
                if not ok:
                    result.failures.append(message)
                return ok

            start = time.monotonic()
            body(check)
            result.seconds = time.monotonic() - start
            return result

        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        SUITES[name] = run
        return run
    return register


def _random_scalar(ctx: FieldContext, rng: random.Random):
    return ctx.scalar([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(ctx.degree)])


def _interval_sign(ctx: FieldContext, coeffs) -> int:
    """Sign by rigorous interval numerics (mpmath), an independent route;
    0 means the interval still straddles zero at 1280 bits."""
    from mpmath import iv
    prec = 80
    while prec <= 1280:
        old = iv.prec
        try:
            iv.prec = prec
            theta = 2 * iv.cos(iv.pi / ctx.L)
            acc = iv.mpf(0)
            for c in reversed(coeffs):
                acc = acc * theta + iv.mpf(c.numerator) / c.denominator
            if acc.a > 0:
                return 1
            if acc.b < 0:
                return -1
        finally:
            iv.prec = old
        prec *= 2
    return 0


def _corpus_fields():
    seen = {}
    for name, system in corpus.all_systems():
        seen.setdefault(system.field.L, (name, system.field))
    return [seen[L] for L in sorted(seen)]


@_suite("kernel")
def suite_kernel(check):
    """Field arithmetic: ring axioms and exact signs on 1000 random scalars
    per corpus field, the minimal polynomial vanishing at theta, and the
    doubled-cosine identity for every finite label."""
    for name, ctx in _corpus_fields():
        rng = random.Random(0)
        zero, one = ctx.zero, ctx.one
        check(ctx.evaluate_int_poly(ctx.minpoly).is_zero(), f"{name}: minpoly(theta) != 0")
        for i in range(1000):
            a = _random_scalar(ctx, rng)
            b = _random_scalar(ctx, rng)
            c = _random_scalar(ctx, rng)
            if not check((a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
                         and a * (b + c) == a * b + a * c and a + b == b + a
                         and a * b == b * a and a + (-a) == zero and a * one == a,
                         f"{name} case {i}: ring axiom failed"):
                continue
            check(a.sign() * b.sign() == (a * b).sign(),
                  f"{name} case {i}: sign not multiplicative")
        for i in range(1000):
            a = _random_scalar(ctx, rng)
            b = _random_scalar(ctx, rng)
            total = a + b
            reference = _interval_sign(ctx, total.coeffs)
            if reference == 0:
                check(total.is_zero(), f"{name} case {i}: interval sign undecided "
                                       "on a nonzero scalar")
            else:
                check(reference == total.sign(),
                      f"{name} case {i}: exact sign {total.sign()} "
                      f"disagrees with interval sign {reference}")
    for name, system in corpus.all_systems():
        for i in range(system.rank):
            for j in range(i + 1, system.rank):
                m = system.matrix[i][j]
                if m == float("inf"):
                    continue
                doubled = 2 * -system.form[i][j]
                acc = system.field.zero
                for co in reversed(double_cosine_poly(m)):
                    acc = acc * doubled + system.field.from_rational(co)
                check(acc + 2 == system.field.zero,
                      f"{name}: D_{m}(2cos(pi/{m})) + 2 != 0")


@_suite("faithful-representation")
def suite_faithful(check):
    """Finite groups come out with the right order, and distinct canonical
    words always carry distinct matrices.  The matrices are composed densely
    by compose_matrix, and each must equal the element's cached matrix, which
    the engine builds by generator steps through the neighbour table."""
    for name, expected in sorted(EXPECTED_ORDERS.items()):
        system = corpus.load(name)
        elements = enumerate_group(system, 10 * expected).elements
        check(len(elements) == expected, f"{name}: order {len(elements)} != {expected}")
        by_matrix = {}
        for g in elements:
            M = system.compose_matrix(g.word)
            check(M == g.matrix, f"{name}: {g}: stepped matrix differs from the dense product")
            other = by_matrix.setdefault(M, g)
            check(other is g, f"{name}: words {g} and {other} share a matrix")


@_suite("product-orders")
def suite_product_orders(check):
    """order_of_product(s, t) equals the matrix label for every generator
    pair of every corpus group, with (sigma_s sigma_t)^m the exact identity
    for finite labels and no repetition within the cap for inf."""
    for name, system in corpus.all_systems():
        for i in range(system.rank):
            for j in range(system.rank):
                if i == j:
                    continue
                try:
                    got = order_of_product(system, i, j)
                except InvariantViolation as exc:
                    check(False, f"{name} ({i},{j}): {exc}")
                    continue
                m = system.matrix[i][j]
                if not check(got == m, f"{name} ({i},{j}): order {got} != {m}"):
                    continue
                if m != float("inf"):
                    P = system.compose_matrix((i, j) * m)
                    check(P == system._identity_matrix,
                          f"{name} ({i},{j}): power m not identity")


@_suite("root-dichotomy")
def suite_root_dichotomy(check):
    """Every root produced through depth 8 in every corpus group is
    one-signed with unit norm, and the finite groups yield exactly the known
    positive-root counts."""
    for name, system in corpus.all_systems():
        try:
            found = root_depths(system, 8)
        except Exception as exc:  # RootSignViolation would land here
            check(False, f"{name}: enumeration failed: {exc}")
            continue
        for root in found:
            check(root.is_positive(), f"{name}: enumerated root {root} not positive")
            check(root.norm() == 1, f"{name}: root {root} has norm {root.norm()}")
        expected = EXPECTED_POSITIVE_ROOTS.get(name)
        if expected is not None:
            check(len(found) == expected, f"{name}: {len(found)} roots != {expected}")


@_suite("length-vs-root-sign")
def suite_length_sign(check):
    """Exhaustively over the finite corpus groups: multiplying by the
    reflection of a positive root increases length exactly when the element
    maps the root to a positive root.  Lengths come from canonical words via
    the multiplication table; signs come from the dense matrix of
    compose_matrix, not from the engine's generator steps."""
    for name in sorted(EXPECTED_ORDERS):
        system = corpus.load(name)
        table = enumerate_group(system)
        roots = sorted(root_depths(system, 64),
                       key=lambda r: tuple(c.coeffs for c in r.coords))
        reflections = [(r, reflection_of_root(r).element) for r in roots]
        for w in table.elements:
            wi = table.element_index(w)
            M = system.compose_matrix(w.word)
            n = system.rank
            for root, refl in reflections:
                product = table.elements[table.mult(wi, table.element_index(refl))]
                grows = product.length > w.length
                image = tuple(
                    sum((M[i][k] * root.coords[k] for k in range(n)),
                        system.field.zero) for i in range(n))
                positive = _first_sign(image) > 0
                check(grows == positive, f"{name}: w={w}, root={root}: length says {grows}, "
                                         f"sign says {positive}")


@_suite("subsystem-roots")
def suite_subsystem_roots(check):
    """For every generator subset I: the roots supported inside I are exactly
    the roots of the subsystem on I (depth-6 truncations for the infinite
    groups), and each such root factors through descend_root as promised."""
    groups = [("a2", 64), ("b2", 64), ("a1xa1", 64), ("a3", 64), ("b3", 64),
              ("dihedral_inf", 6), ("affine_a2", 6)]
    for name, depth in groups:
        system = corpus.load(name)
        full = root_depths(system, depth)
        for size in range(system.rank + 1):
            for subset in combinations(range(system.rank), size):
                I = frozenset(subset)
                supported = {r for r in full if r.support <= I}
                sub = set(root_depths(system, depth, gens=I))
                check(supported == sub, f"{name} I={sorted(I)}: support-filtered "
                                        "roots differ from subsystem roots")
                for root in sorted(supported,
                                   key=lambda r: tuple(c.coeffs for c in r.coords)):
                    try:
                        u, s = descend_root(root, I)
                    except Exception as exc:
                        check(False, f"{name} I={sorted(I)} {root}: {exc}")
                        continue
                    check(set(u.word) <= I and s in I
                          and u.act(system.basis_vector(s)) == root.coords,
                          f"{name} I={sorted(I)} {root}: descend_root round-trip failed")


@_suite("pairwise-intersection")
def suite_pairwise_intersection(check):
    """intersect agrees with literal set intersection on every ordered pair
    of distinct parabolics of A3 and B3."""
    for name in ("a3", "b3"):
        system = corpus.load(name)
        table = enumerate_group(system)
        paras = table.parabolics()
        for i, (p1, m1) in enumerate(paras):
            for j, (p2, m2) in enumerate(paras):
                if i == j:
                    continue
                q = intersect(p1, p2)
                check(table.subgroup_elements(q) == m1 & m2,
                      f"{name}: intersect({p1.describe()}, "
                      f"{p2.describe()}) disagrees with sets")


@_suite("conjugate-generator-sets")
def suite_conjugate_generator_sets(check):
    """Whenever brute-force conjugation shows w W_J w^{-1} = W_I, the ranks
    match and conjugacy_normalize produces a witness mapping the simple
    roots of J exactly onto those of I."""
    for name in ("a2", "a1xa1", "b2", "a3"):
        system = corpus.load(name)
        table = enumerate_group(system)
        n = system.rank
        subsets = [frozenset(c) for size in range(n + 1)
                   for c in combinations(range(n), size)]
        for I in subsets:
            set_i = table.special_subgroup(I)
            for J in subsets:
                set_j = table.special_subgroup(J)
                for wi, w in enumerate(table.elements):
                    if table.conjugate_set(wi, set_j) != set_i:
                        continue
                    # one check per conjugate triple, whichever test refutes it
                    if len(I) != len(J):
                        check(False, f"{name}: conjugate subsets "
                                     f"{sorted(I)} vs {sorted(J)} differ in rank")
                        continue
                    witness = conjugacy_normalize(system, I, J, w)
                    if witness is None:
                        check(False, f"{name}: refutation on true pair "
                                     f"I={sorted(I)}, J={sorted(J)}, w={w}")
                        continue
                    w0 = witness.w0
                    images = {t: w0.act(system.basis_vector(t)) for t in J}
                    check(sorted(witness.mapping) == sorted(J)
                          and set(witness.mapping.values()) == set(I)
                          and all(images[t] == system.basis_vector(witness.mapping[t])
                                  for t in J),
                          f"{name}: invalid witness for "
                          f"I={sorted(I)}, J={sorted(J)}, w={w}")


@_suite("rank-drop")
def suite_rank_drop(check):
    """For incomparable parabolic pairs of A3 and B3 the intersection has
    strictly smaller rank than either side."""
    for name in ("a3", "b3"):
        system = corpus.load(name)
        table = enumerate_group(system)
        paras = table.parabolics()
        for i, (p1, m1) in enumerate(paras):
            for p2, m2 in paras[i + 1:]:
                if m1 <= m2 or m2 <= m1:
                    continue
                q = intersect(p1, p2)
                check(q.rank < min(p1.rank, p2.rank),
                      f"{name}: rank {q.rank} did not drop below "
                      f"{p1.rank} and {p2.rank}")


@_suite("parabolic-closure")
def suite_parabolic_closure(check):
    """pc, which scans a finite group to the floor n - dim Fix(X) for its
    least presentation, equals the brute-force closure (with its
    minimal-rank uniqueness checks) on 200 random query sets in every finite
    corpus group."""
    for gi, name in enumerate(sorted(EXPECTED_ORDERS)):
        system = corpus.load(name)
        table = enumerate_group(system)
        rng = random.Random(7 * gi)
        for case in range(200):
            k = rng.randint(1, 3)
            elements = [table.elements[rng.randrange(table.order)] for _ in range(k)]
            result = pc(ClosureQuery(elements, 64))
            try:
                oracle_p, oracle_m = brute_pc(table, elements)
            except NotAParabolic as exc:
                check(False, f"{name} case {case}: oracle: {exc}")
                continue
            check(result.status is ClosureStatus.EXACT
                  and table.subgroup_elements(result.closure) == oracle_m
                  and result.closure.equals(oracle_p)
                  and all(result.closure.contains_element(g) for g in elements),
                  f"{name} case {case}: pc {result.closure.describe()} "
                  f"disagrees with oracle {oracle_p.describe()}")


@_suite("infinite-closure")
def suite_infinite_closure(check):
    """Closure in the infinite dihedral group: a rotation closes up to the
    whole group and a reflection to itself, both certified exact."""
    system = corpus.load("dihedral_inf")
    rotation = pc(ClosureQuery([system.element("s t")], 6))
    full = make(system.identity, frozenset(range(system.rank)))
    check(rotation.closure.equals(full)
          and rotation.status is ClosureStatus.EXACT,
          f"rotation closure wrong: {rotation!r}")
    reflection = pc(ClosureQuery([system.element("s")], 6))
    check(reflection.closure.equals(make(system.identity, frozenset({0})))
          and reflection.status is ClosureStatus.EXACT,
          f"reflection closure wrong: {reflection!r}")


@_suite("certified-closure")
def suite_certified_closure(check):
    """In every infinite corpus group, on 8 seeded queries of 1-3 elements:
    every closure pc returns is certified exact, contains the query and lies
    inside the closure found by the candidate scan alone at radius 12.  Half
    of the queries are random words; the other half lie in a random
    conjugate w W_J w^{-1}, so that closures of every rank occur."""
    for gi, name in enumerate(corpus.INFINITE_NAMES):
        system = corpus.load(name)
        rng = random.Random(17 * gi)
        n = system.rank
        for case in range(8):
            if case % 2:
                letters = sorted(s for s in range(n) if rng.random() < 0.5) or [0]
                w = system.normalize([rng.randrange(n) for _ in range(rng.randint(0, 3))])
                winv = w.inverse()
                elements = [w * system.normalize([rng.choice(letters) for _ in
                                                  range(rng.randint(1, 4))]) * winv
                            for _ in range(rng.randint(1, 3))]
            else:
                elements = [system.normalize([rng.randrange(n) for _ in
                                              range(rng.randint(1, 6))])
                            for _ in range(rng.randint(1, 3))]
            result = pc(ClosureQuery(elements, 8))
            words = ", ".join(str(g) for g in elements)
            # one check per query: certified, then inside the scan result
            if result.status is not ClosureStatus.EXACT:
                check(False, f"{name} case {case} [{words}]: closure "
                             f"{result.closure.describe()} is not certified")
                continue
            scanned = scan_closure(ClosureQuery(elements, 12)).closure
            check(all(result.closure.contains_element(g) for g in elements)
                  and scanned.contains(result.closure),
                  f"{name} case {case} [{words}]: exact closure "
                  f"{result.closure.describe()} not inside the "
                  f"scan result {scanned.describe()}")


@_suite("cone-stabilizers")
def suite_cone_stabilizers(check):
    """stabilizer(w(f_I)) is w W_I w^{-1} for 100 random pairs in each corpus
    group, without the chamber walk: its rep is shortest in w*W_I by
    descents and words, and in the finite groups its element set is the
    oracle's literal one.  locate recovers f_I exactly."""
    for gi, (name, system) in enumerate(corpus.all_systems()):
        rng = random.Random(13 * gi)
        finite = name in EXPECTED_ORDERS
        if finite:
            table = enumerate_group(system)
            pool = table.elements
        n = system.rank
        for case in range(100):
            if finite:
                w = pool[rng.randrange(len(pool))]
            else:
                w = system.normalize([rng.randrange(n)
                                      for _ in range(rng.randint(0, 8))])
            I = frozenset(s for s in range(n) if rng.random() < 0.5)
            f0 = fundamental_point(system, I)
            f = f0.transformed_by(w)
            loc = locate(f)
            P = stabilizer(f)
            check(loc.point == f0 and P.gens == I and P.base_point == f
                  and not P.rep.right_descents & I
                  and set((P.rep.inverse() * w).word) <= I
                  and (not finite or table.subgroup_elements(P) == table.conjugate_set(
                      table.index[w], table.special_subgroup(I))),
                  f"{name} case {case}: w={w}, I={sorted(I)}")


def run_suites(names=None) -> list[SuiteResult]:
    """Run the named suites in the order given, all of them by default; an
    unknown name raises KeyError before any suite runs."""
    names = list(SUITES) if names is None else list(names)
    for name in names:
        if name not in SUITES:
            raise KeyError(f"no suite named {name!r}")
    return [SUITES[name]() for name in names]
