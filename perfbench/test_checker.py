"""Self-test of the benchmark's answer checker.

    python3 perfbench/test_checker.py      (or: python3 -m pytest perfbench)

For each workload, real answers from coxkit must pass the checker and a
planted wrong answer of each kind must fail it, so that error_rate = 0 in a
benchmark run means something.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import coxkit as ck  # noqa: E402
from checker import Checker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RECORDED = json.loads((HERE / "data" / "recorded.json").read_text())
SEED = 7
QUERIES = 40


def _answered(name):
    """A set-up workload, its checker and its first queries with coxkit's answers."""
    workload = WORKLOADS[name](ck)
    workload.setup()
    workload.prepare(RECORDED)
    stream = workload.queries(SEED)
    records = [(q, workload.run(q)) for q, _ in zip(stream, range(QUERIES))]
    return workload, Checker(ck, workload.systems, RECORDED), records


class CheckerCase:
    """Shared checks; each workload's case mixes this into a TestCase."""

    name = ""

    @classmethod
    def setUpClass(cls):
        cls.workload, cls.checker, cls.records = _answered(cls.name)

    def first(self, op, accept=lambda q, a: True):
        for q, a in self.records:
            if q["op"] == op and accept(q, a):
                return q, a
        self.fail(f"no {op} query in the first {QUERIES}")

    def assertRejected(self, q, wrong):
        self.assertIsNotNone(self.checker.check(q, wrong),
                             f"planted answer {wrong!r} passed for {q['group']} {q['op']}")

    def test_real_answers_pass(self):
        for q, a in self.records:
            self.assertIsNone(self.checker.check(q, a), f"{q['group']} {q['op']}")


class WordsChecker(CheckerCase, unittest.TestCase):
    name = "words"

    def test_non_canonical_word(self):
        for op in ("normalize", "multiply", "inverse"):
            for group in self.workload.groups:
                q, a = self.first(op, lambda q, a, g=group: q["group"] == g and len(a) >= 2)
                # another element, or a word that is not reduced
                self.assertRejected(q, tuple(reversed(a)) if a != a[::-1] else a + a[:1])
                self.assertRejected(q, a + (a[-1], a[-1]))

    def test_oracle_catches_finite_products(self):
        q, a = self.first("multiply", lambda q, a: q["group"] == "h3")
        self.assertRejected(q, a[:-1])

    def test_wrong_descents(self):
        q, (word, left, right) = self.first("descents")
        self.assertRejected(q, (word, right ^ {0}, right))
        self.assertRejected(q, (word, left, right ^ {1}))

    def test_golden_words_match_reference(self):
        self.assertEqual(self.checker.golden_failures(), [])
        tampered = json.loads(json.dumps(RECORDED))
        word, expected = tampered["canonical"]["h3"][-1]
        tampered["canonical"]["h3"][-1] = [word, expected[:-1]]
        self.assertEqual(Checker(ck, self.workload.systems, tampered).golden_failures(),
                         ["h3"])


class ClosureChecker(CheckerCase, unittest.TestCase):
    name = "closure"

    def test_too_large_exact_closure(self):
        for group in ("b3", "h3"):
            q, (rep, gens, status) = self.first(
                "pc", lambda q, a, g=group: q["group"] == g and len(a[1]) < 3)
            self.assertRejected(q, ((), frozenset(range(3)), status))

    def test_too_small_exact_closure(self):
        q, (rep, gens, status) = self.first("pc", lambda q, a: len(a[1]) > 0)
        self.assertRejected(q, (rep, frozenset(sorted(gens)[:-1]), status))

    def test_wrong_status(self):
        q, (rep, gens, _) = self.first("pc")
        self.assertRejected(q, (rep, gens, "radius-limited"))

    def test_radius_limited_closure_bounds(self):
        q, (rep, gens, status) = self.first("pc_limited")
        self.assertRejected(q, ((), frozenset(), status))
        # a closure larger than the recorded one
        entry = next(e for e in RECORDED["closures"]["affine_a2"] if len(e["gens"]) < 3)
        q = dict(q, group="affine_a2", elements=[tuple(w) for w in entry["elements"]],
                 recorded=(tuple(entry["rep"]), frozenset(entry["gens"])))
        self.assertIsNone(self.checker.check(q, (tuple(entry["rep"]),
                                                 frozenset(entry["gens"]), status)))
        self.assertRejected(q, ((), frozenset(range(3)), status))

    def test_wrong_intersections(self):
        for op in ("intersect", "intersect_conj"):
            q, (rep, gens) = self.first(op, lambda q, a: len(a[1]) < 3)
            self.assertRejected(q, ((), frozenset(range(3))))


class ConeChecker(CheckerCase, unittest.TestCase):
    name = "cone"

    def test_wrong_cell(self):
        q, (w, gens, point) = self.first("locate", lambda q, a: len(a[0]) > 0)
        self.assertRejected(q, (w[:-1], gens, point))
        self.assertRejected(q, (w, gens ^ {0}, point))
        self.assertRejected(q, (w, gens, tuple(c * 2 for c in point)))

    def test_wrong_stabilizer(self):
        q, (rep, gens) = self.first("stabilizer", lambda q, a: len(a[0]) > 0)
        self.assertRejected(q, (rep[1:], gens))
        self.assertRejected(q, (rep, gens ^ {2}))

    def test_wrong_reflection(self):
        q, word = self.first("reflection", lambda q, a: len(a) > 1)
        self.assertRejected(q, word[1:])
        self.assertRejected(q, word + word[-1:])

    def test_wrong_descent(self):
        q, (u, s) = self.first("descend", lambda q, a: len(a[0]) > 0)
        self.assertRejected(q, (u, (s + 1) % 3))
        self.assertRejected(q, (u[:-1], s))


if __name__ == "__main__":
    unittest.main()
