"""The benchmark's three query workloads.

Each workload loads its groups and runs a fixed warm-up (the set-up phase),
then yields an endless stream of queries made from the seed alone.  A query
is a dict of plain inputs: generator-index words, generator subsets and, for
the cone, exact coordinates already converted into the engine's field.  The
stream follows a fixed schedule of (group, operation) slots so that every
seed runs the same mix; only the random contents differ.

`run(query)` makes the coxkit calls and returns the answer as plain data,
which the checker (checker.py) verifies after the timed phase.
"""

from __future__ import annotations

import random
from fractions import Fraction

from reference import RefSystem, corpus_matrix, scaled_integer_point

EXACT_RADIUS = 16      # beyond the longest element of b3 (9) and h3 (15)
LIMITED_RADIUS = 10    # the one radius of the radius-limited closures
ROOT_DEPTH = 8


def _random_word(rng, rank, length):
    """A word of the given length with no letter repeated back to back."""
    word = []
    while len(word) < length:
        s = rng.randrange(rank)
        if not word or word[-1] != s:
            word.append(s)
    return tuple(word)


def _random_subset(rng, rank):
    return frozenset(s for s in range(rank) if rng.random() < 0.5)


class Workload:
    name = ""
    groups: tuple = ()
    schedule: tuple = ()   # (group, op) slots, cycled in order

    def __init__(self, ck):
        self.ck = ck
        self.systems = {}
        self.refs = {}

    def setup(self):
        """Load the groups and run the fixed warm-up (timed as set-up)."""
        for g in self.groups:
            self.systems[g] = self.ck.corpus.load(g)
        self.warm_up()

    def warm_up(self):
        pass

    def prepare(self, recorded):
        """Benchmark-side state for generating inputs (not the program's
        set-up, so it is timed neither as set-up nor as queries)."""
        for g in self.groups:
            self.refs[g] = RefSystem(corpus_matrix(self.ck.corpus.source(g)))

    def queries(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        i = 0
        while True:
            group, op = self.schedule[i % len(self.schedule)]
            q = getattr(self, "make_" + op)(rng, group, i // len(self.schedule))
            q["group"], q["op"] = group, op
            yield q
            i += 1

    def run(self, q):
        return getattr(self, "run_" + q["op"])(self.systems[q["group"]], q)


class Words(Workload):
    """Normalize, multiply, inverse and descents on fresh random words:
    cold intern caches, coxgroup normalize and scalar mul/add."""

    name = "words"
    groups = ("hyperbolic_334", "affine_a2", "h3")
    schedule = tuple((g, op) for g in groups
                     for op in ("normalize", "multiply", "inverse", "descents"))
    LENGTH_BUCKETS = 7     # input lengths 16..64 in buckets of 7

    def warm_up(self):
        for W in self.systems.values():
            g = W.normalize(tuple(range(W.rank)))
            (g * g).inverse()
            g.left_descents, g.right_descents

    def _length(self, rng, cycle):
        return 16 + 7 * (cycle % self.LENGTH_BUCKETS) + rng.randrange(7)

    def _word_query(self, rng, group, cycle):
        rank = self.refs[group].rank
        return {"word": _random_word(rng, rank, self._length(rng, cycle))}

    make_normalize = make_inverse = make_descents = _word_query

    def make_multiply(self, rng, group, cycle):
        rank = self.refs[group].rank
        return {"word": _random_word(rng, rank, self._length(rng, cycle)),
                "word2": _random_word(rng, rank, self._length(rng, cycle + 3))}

    @staticmethod
    def run_normalize(W, q):
        return W.normalize(q["word"]).word

    @staticmethod
    def run_multiply(W, q):
        return (W.normalize(q["word"]) * W.normalize(q["word2"])).word

    @staticmethod
    def run_inverse(W, q):
        return W.normalize(q["word"]).inverse().word

    @staticmethod
    def run_descents(W, q):
        g = W.normalize(q["word"])
        return (g.word, g.left_descents, g.right_descents)

    @staticmethod
    def profile(q, answer):
        reduced = answer[0] if q["op"] == "descents" else answer
        size = len(q["word"]) + len(q.get("word2", ()))
        return {"input_len": size, "reduced_len": len(reduced)}


class Closure(Workload):
    """Parabolic closures and intersections with warm caches: exhaustive
    closures in b3 and h3, radius-limited closures in hyperbolic_334 and
    affine_a2, intersections in b3, h3 and affine_a2."""

    name = "closure"
    groups = ("b3", "h3", "hyperbolic_334", "affine_a2")
    schedule = (
        (("b3", "pc"),) * 4 + (("h3", "pc"),) * 4
        + (("hyperbolic_334", "pc_limited"),) + (("affine_a2", "pc_limited"),) * 2
        + (("b3", "intersect"),) * 3 + (("h3", "intersect"),) * 3
        + (("affine_a2", "intersect_conj"),) * 3)

    def warm_up(self):
        ck = self.ck
        for g, W in self.systems.items():
            radius = EXACT_RADIUS if g in ("b3", "h3") else LIMITED_RADIUS
            ck.pc(ck.ClosureQuery([W.generator(0)], radius))
            ck.intersect(ck.make(W.identity, {0, 1}), ck.make(W.identity, {1, 2}))

    def prepare(self, recorded):
        super().prepare(recorded)
        self.pool = {g: recorded["closures"][g] for g in ("hyperbolic_334", "affine_a2")}

    def _element(self, rng, group):
        """A near-uniform group element, as its canonical word."""
        ref = self.refs[group]
        return ref.canonical(_random_word(rng, ref.rank, rng.randint(0, 24)))

    def make_pc(self, rng, group, cycle):
        return {"elements": [self._element(rng, group) for _ in range(rng.randint(1, 3))],
                "radius": EXACT_RADIUS}

    def make_pc_limited(self, rng, group, cycle):
        entry = rng.choice(self.pool[group])
        return {"elements": [tuple(w) for w in entry["elements"]],
                "radius": LIMITED_RADIUS,
                "recorded": (tuple(entry["rep"]), frozenset(entry["gens"]))}

    def make_intersect(self, rng, group, cycle):
        rank = self.refs[group].rank
        return {"a": (self._element(rng, group), _random_subset(rng, rank)),
                "b": (self._element(rng, group), _random_subset(rng, rank))}

    def make_intersect_conj(self, rng, group, cycle):
        """Two parabolics w W_I w^-1 and w W_J w^-1 given through different
        coset representatives; their intersection is w W_{I & J} w^-1."""
        ref = self.refs[group]
        w = ref.random_reduced(rng, rng.randint(1, 8))
        I, J = _random_subset(rng, ref.rank), _random_subset(rng, ref.rank)
        u1 = _random_word(rng, ref.rank, 4) if I else ()
        u2 = _random_word(rng, ref.rank, 4) if J else ()
        u1 = tuple(sorted(I)[s % len(I)] for s in u1)
        u2 = tuple(sorted(J)[s % len(J)] for s in u2)
        return {"a": (ref.canonical(w + u1), I), "b": (ref.canonical(w + u2), J),
                "expected": (w, I & J)}

    def run_pc(self, W, q):
        ck = self.ck
        res = ck.pc(ck.ClosureQuery([W.normalize(w) for w in q["elements"]], q["radius"]))
        return (res.closure.rep.word, res.closure.gens, res.status.value)

    run_pc_limited = run_pc

    def run_intersect(self, W, q):
        ck = self.ck
        p = ck.intersect(ck.make(W.normalize(q["a"][0]), q["a"][1]),
                         ck.make(W.normalize(q["b"][0]), q["b"][1]))
        return (p.rep.word, p.gens)

    run_intersect_conj = run_intersect

    @staticmethod
    def profile(q, answer):
        if "elements" in q:
            return {"input_len": sum(len(w) for w in q["elements"]),
                    "query_elements": len(q["elements"]), "closure_rank": len(answer[1])}
        return {"input_len": len(q["a"][0]) + len(q["b"][0]),
                "closure_rank": len(answer[1])}


class Cone(Workload):
    """Tits-cone location and stabilizers of points w(f0) with rational f0,
    and the root/reflection bijection: titscone, roots and scalar signs."""

    name = "cone"
    groups = ("hyperbolic_334", "affine_a2")
    # reflections weigh double: reflection_of_root runs its own descent walk
    # inside the roots layer, the work this workload exists to measure
    schedule = (
        (("hyperbolic_334", "locate"),) * 2 + (("hyperbolic_334", "stabilizer"),) * 2
        + (("hyperbolic_334", "reflection"),) * 4 + (("hyperbolic_334", "descend"),) * 2
        + (("affine_a2", "locate"), ("affine_a2", "stabilizer"),
           ("affine_a2", "reflection"), ("affine_a2", "descend")))

    def warm_up(self):
        ck = self.ck
        for W in self.systems.values():
            one = W.field.one
            ck.stabilizer(ck.DualPoint(W, (one,) * W.rank))
            root = ck.Root(W, W.basis_vector(0))
            ck.reflection_of_root(root)
            ck.descend_root(root, range(W.rank))

    def prepare(self, recorded):
        super().prepare(recorded)
        self.omega = {}
        self.roots = {}
        for g, W in self.systems.items():
            label = self.refs[g].ring.label
            self.omega[g] = 2 * self.ck.cos_pi_over(W.field, label) if label else None
            found = self.refs[g].positive_roots(ROOT_DEPTH)
            self.roots[g] = list(found.items())

    def _to_engine(self, group, x, scale=1):
        """The ring element x = a + b*omega, divided by scale, as an engine scalar."""
        field = self.systems[group].field
        out = field.from_rational(Fraction(x[0], scale))
        if x[1]:
            out = out + field.from_rational(Fraction(x[1], scale)) * self.omega[group]
        return out

    def _point(self, rng, group):
        ref = self.refs[group]
        w = ref.random_reduced(rng, rng.randint(10, 30))
        f0 = [Fraction(0) if rng.random() < 0.25 else
              Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(ref.rank)]
        if not any(f0):
            f0[rng.randrange(ref.rank)] = Fraction(1, rng.randint(1, 9))
        scale, ints = scaled_integer_point(f0)
        coords = tuple(self._to_engine(group, c, scale) for c in ref.dual_act(w, ints))
        return {"w": w, "f0": tuple(f0),
                "I": frozenset(t for t, c in enumerate(f0) if not c), "coords": coords}

    def make_locate(self, rng, group, cycle):
        return self._point(rng, group)

    make_stabilizer = make_locate

    def _root(self, rng, group):
        root, (u, s) = rng.choice(self.roots[group])
        rank = self.refs[group].rank
        support = frozenset(t for t, c in enumerate(root) if c != (0, 0))
        return {"root": root, "u": u, "s": s,
                "gens": support | _random_subset(rng, rank),
                "coords": tuple(self._to_engine(group, c) for c in root)}

    def make_reflection(self, rng, group, cycle):
        return self._root(rng, group)

    make_descend = make_reflection

    def run_locate(self, W, q):
        loc = self.ck.locate(self.ck.DualPoint(W, q["coords"]))
        point = tuple(c.as_fraction() if c.is_rational() else None
                      for c in loc.point.coords)
        return (loc.w.word, loc.gens, point)

    def run_stabilizer(self, W, q):
        p = self.ck.stabilizer(self.ck.DualPoint(W, q["coords"]))
        return (p.rep.word, p.gens)

    def run_reflection(self, W, q):
        return self.ck.reflection_of_root(self.ck.Root(W, q["coords"])).element.word

    def run_descend(self, W, q):
        u, s = self.ck.descend_root(self.ck.Root(W, q["coords"]), q["gens"])
        return (u.word, s)

    @staticmethod
    def profile(q, answer):
        if "w" in q:
            return {"input_len": len(q["w"]), "face_rank": len(q["I"])}
        return {"input_len": 2 * len(q["u"]) + 1}


WORKLOADS = {cls.name: cls for cls in (Words, Closure, Cone)}
