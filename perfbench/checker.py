"""Answer checker: verifies every recorded (query, answer) pair after the
timed phase, by routes independent of the engine's own algorithms.

* Canonical words, descents, cosets, membership: the reference arithmetic
  over Z[omega] (reference.py), itself checked against canonical words
  recorded at the baseline commit (data/recorded.json).
* Finite groups: the coxkit brute-force oracle - products by
  FiniteGroupTable.mult, closures by brute_pc, intersections by literal
  intersection of element sets.
* Infinite groups: checks that hold by construction - locate(w f0) returns
  f0 and the coset of w, stabilizer(w f0) is the parabolic of (w, I),
  reflections and descents match the word the root was generated from, the
  intersection of w W_I w^-1 and w W_J w^-1 is w W_{I & J} w^-1, and a
  radius-limited closure contains the query and lies inside the closure
  recorded at the baseline commit.

`check(query, answer)` returns None for a correct answer and a short reason
otherwise.
"""

from __future__ import annotations

from reference import RefSystem, corpus_matrix


class Checker:
    FINITE = ("h3", "b3")

    def __init__(self, ck, systems, recorded):
        self.ck = ck
        self.systems = systems
        self.refs = {g: RefSystem(corpus_matrix(ck.corpus.source(g))) for g in systems}
        self.recorded = recorded
        self._tables = {}

    def check(self, q, answer):
        return getattr(self, "check_" + q["op"])(q, answer)

    def golden_failures(self):
        """Groups whose reference canonical words differ from the recorded ones."""
        return sorted(g for g, entries in self.recorded["canonical"].items()
                      if g in self.refs and any(
                          self.refs[g].canonical(tuple(word)) != tuple(expected)
                          for word, expected in entries))

    # -- the brute-force oracle for finite groups ---------------------------------

    def _table(self, group):
        if group not in self._tables:
            self._tables[group] = self.ck.enumerate_group(self.systems[group])
        return self._tables[group]

    def _index(self, group, word):
        """Element index of a word, folded through the generator permutations."""
        t = self._table(group)
        out = t.index[self.systems[group].identity]
        for s in reversed(word):
            out = t.left_action[s][out]
        return out

    def _members(self, group, rep, gens):
        """Element indices of rep W_I rep^-1."""
        t = self._table(group)
        return t.conjugate_set(self._index(group, rep), t.special_subgroup(gens))

    def _oracle_word(self, group, index):
        return self._table(group).elements[index].word

    # -- words --------------------------------------------------------------------

    def _word(self, q, answer, spelled, oracle_index):
        """answer must be the canonical word of the element spelled by the
        given word; for finite groups also the oracle's word at the index."""
        g = q["group"]
        expected = self.refs[g].canonical(spelled)
        if tuple(answer) != expected:
            return f"{answer} is not the canonical word {expected}"
        if g in self.FINITE and tuple(answer) != self._oracle_word(g, oracle_index()):
            return f"{answer} differs from the oracle"
        return None

    def check_normalize(self, q, answer):
        w = q["word"]
        return self._word(q, answer, w, lambda: self._index(q["group"], w))

    def check_multiply(self, q, answer):
        g, a, b = q["group"], q["word"], q["word2"]
        return self._word(q, answer, a + b, lambda: self._table(g).mult(
            self._index(g, a), self._index(g, b)))

    def check_inverse(self, q, answer):
        g, w = q["group"], q["word"]
        return self._word(q, answer, tuple(reversed(w)),
                          lambda: self._table(g).inverse[self._index(g, w)])

    def check_descents(self, q, answer):
        word, left, right = answer
        ref = self.refs[q["group"]]
        if left != ref.left_descents(q["word"]) or right != ref.right_descents(q["word"]):
            return f"descents {sorted(left)}/{sorted(right)} are wrong"
        return self.check_normalize(q, word)

    # -- closure ------------------------------------------------------------------

    def check_pc(self, q, answer):
        g = q["group"]
        rep, gens, status = answer
        if status != "exact":
            return f"status {status} on an exhaustive scan of a finite group"
        t = self._table(g)
        elements = [t.elements[self._index(g, w)] for w in q["elements"]]
        _, expected = self.ck.brute_pc(t, elements)
        if self._members(g, rep, gens) != expected:
            return f"closure ({rep}, {sorted(gens)}) differs from the oracle"
        return None

    def check_pc_limited(self, q, answer):
        ref = self.refs[q["group"]]
        rep, gens, _status = answer
        if not all(ref.is_member(w, rep, gens) for w in q["elements"]):
            return f"closure ({rep}, {sorted(gens)}) misses a query element"
        if not ref.subgroup_le((rep, gens), q["recorded"]):
            return f"closure ({rep}, {sorted(gens)}) exceeds the recorded closure"
        return None

    def check_intersect(self, q, answer):
        g = q["group"]
        expected = self._members(g, *q["a"]) & self._members(g, *q["b"])
        if self._members(g, *answer) != expected:
            return f"intersection ({answer[0]}, {sorted(answer[1])}) differs from the oracle"
        return None

    def check_intersect_conj(self, q, answer):
        ref = self.refs[q["group"]]
        if not (ref.subgroup_le(answer, q["expected"])
                and ref.subgroup_le(q["expected"], answer)):
            return f"intersection ({answer[0]}, {sorted(answer[1])}) is not w W_(I&J) w^-1"
        return None

    # -- cone ---------------------------------------------------------------------

    def check_locate(self, q, answer):
        w, gens, point = answer
        expected = self.refs[q["group"]].coset_min(q["w"], q["I"])
        if (tuple(w), gens, point) != (expected, q["I"], q["f0"]):
            return f"cell ({w}, {sorted(gens)}, {point}) is not ({expected}, {sorted(q['I'])})"
        return None

    def check_stabilizer(self, q, answer):
        rep, gens = answer
        expected = self.refs[q["group"]].coset_min(q["w"], q["I"])
        if (tuple(rep), gens) != (expected, q["I"]):
            return f"stabilizer ({rep}, {sorted(gens)}) is not ({expected}, {sorted(q['I'])})"
        return None

    def check_reflection(self, q, answer):
        ref = self.refs[q["group"]]
        u = q["u"]
        expected = ref.canonical(u + (q["s"],) + tuple(reversed(u)))
        if tuple(answer) != expected:
            return f"reflection {answer} is not {expected}"
        if ref.act(answer, q["root"]) != tuple((-a, -b) for a, b in q["root"]):
            return f"reflection {answer} does not negate its root"
        return None

    def check_descend(self, q, answer):
        ref = self.refs[q["group"]]
        u, s = answer
        if not set(u) | {s} <= q["gens"]:
            return f"descent ({u}, {s}) leaves the generator subset"
        if tuple(u) != ref.canonical(u) or ref.act(u, ref.basis(s)) != q["root"]:
            return f"descent ({u}, {s}) does not round-trip to the root"
        return None
