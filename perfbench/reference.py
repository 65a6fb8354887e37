"""Independent reference arithmetic for the benchmark's answer checker.

The engine works in Q(2cos(pi/L)) with Fraction coefficients.  This module
recomputes the same answers from the definitions in a different ring: every
corpus group the benchmark uses needs at most one quadratic irrationality
(sqrt 2 for labels 4, the golden ratio for label 5), and twice the bilinear
form has entries in Z[omega].  Ring elements are pairs of Python ints
(a, b) = a + b*omega with omega^2 = p*omega + q, and signs are decided by
comparing squares of integers, so nothing here shares code or arithmetic
with the engine.

Words are tuples of generator indices.  The canonical word of an element is
its ShortLex-least reduced word: its first letter is the smallest s with
l(s*w) < l(w), i.e. the smallest s with w^{-1}(alpha_s) negative.
"""

from __future__ import annotations

import math

# omega for each label that needs one: omega = 2cos(pi/m) and its minimal
# equation omega^2 = p*omega + q.
_OMEGA = {4: (0, 2), 5: (1, 1), 6: (0, 3)}


class Ring:
    """Z[omega] for one quadratic omega (or plain Z when omega is unused)."""

    def __init__(self, label):
        self.label = label
        self.p, self.q = _OMEGA.get(label, (0, 2))
        self.disc = self.p * self.p + 4 * self.q

    def mul(self, x, y):
        a, b = x
        c, d = y
        bd = b * d
        return (a * c + bd * self.q, a * d + b * c + bd * self.p)

    def sign(self, x) -> int:
        """Sign of a + b*omega = ((2a + b*p) + b*sqrt(disc)) / 2."""
        a, b = x
        u = 2 * a + b * self.p
        if b == 0:
            return (u > 0) - (u < 0)
        su, sb = (u > 0) - (u < 0), (b > 0) - (b < 0)
        if su == 0 or su == sb:
            return sb
        return su if u * u > self.disc * b * b else sb


def _twice_cos(label, ring: Ring):
    """2cos(pi/m) in the ring, for a Coxeter label m (None for infinity)."""
    if label is None:
        return (2, 0)
    if label == 2:
        return (0, 0)
    if label == 3:
        return (1, 0)
    if label != ring.label:
        raise ValueError(f"label {label} does not fit the ring of omega_{ring.label}")
    return (0, 1)


class RefSystem:
    """A Coxeter system over Z[omega], built from its Coxeter matrix
    (None marks an unbounded label)."""

    def __init__(self, matrix):
        n = len(matrix)
        irrational = {m for row in matrix for m in row if m not in (None, 1, 2, 3)}
        if len(irrational) > 1:
            raise ValueError("the reference ring holds one quadratic irrationality")
        self.ring = Ring(irrational.pop() if irrational else None)
        self.rank = n
        # twoB[s][t] = 2 * (alpha_s, alpha_t) = -2cos(pi/m_st), 2 on the diagonal
        self.twoB = tuple(
            tuple((2, 0) if s == t else
                  tuple(-c for c in _twice_cos(matrix[s][t], self.ring))
                  for t in range(n))
            for s in range(n))

    # -- vectors ---------------------------------------------------------------

    def basis(self, s):
        return tuple((1, 0) if i == s else (0, 0) for i in range(self.rank))

    def _pairing2(self, s, vec):
        """2 * (alpha_s, v) for v in simple-root coordinates."""
        mul = self.ring.mul
        a = b = 0
        for coef, v in zip(self.twoB[s], vec):
            x, y = mul(coef, v)
            a += x
            b += y
        return (a, b)

    def reflect(self, s, vec):
        """sigma_s(v) = v - 2(alpha_s, v) alpha_s."""
        a, b = self._pairing2(s, vec)
        out = list(vec)
        out[s] = (out[s][0] - a, out[s][1] - b)
        return tuple(out)

    def act(self, word, vec):
        """w(v) for w given by a word, v in simple-root coordinates."""
        for s in reversed(word):
            vec = self.reflect(s, vec)
        return vec

    def dual_reflect(self, s, coords):
        """Dual action on pairings f_t = <f, alpha_t>: f_t - 2B[s][t] f_s."""
        mul = self.ring.mul
        fs = coords[s]
        out = []
        for coef, c in zip(self.twoB[s], coords):
            x, y = mul(coef, fs)
            out.append((c[0] - x, c[1] - y))
        return tuple(out)

    def dual_act(self, word, coords):
        for s in reversed(word):
            coords = self.dual_reflect(s, coords)
        return coords

    def first_sign(self, vec) -> int:
        for c in vec:
            sg = self.ring.sign(c)
            if sg:
                return sg
        return 0

    # -- canonical words ---------------------------------------------------------

    def _inverse_columns(self, word):
        """Columns w^{-1}(alpha_t) of the matrix of w^{-1}."""
        inv = tuple(reversed(word))
        return [self.act(inv, self.basis(t)) for t in range(self.rank)]

    def canonical(self, word, step_cap=100000):
        """ShortLex-least reduced word of the element spelled by word."""
        cols = self._inverse_columns(word)
        out = []
        for _ in range(step_cap):
            descent = next((s for s in range(self.rank)
                            if self.first_sign(cols[s]) < 0), None)
            if descent is None:
                if any(cols[t] != self.basis(t) for t in range(self.rank)):
                    raise ArithmeticError("descent walk ended away from the identity")
                return tuple(out)
            out.append(descent)
            # w^{-1} <- w^{-1} * s: column t becomes col_t - 2B[s][t] col_s
            cs = cols[descent]
            mul = self.ring.mul
            cols = [tuple((c[0] - x, c[1] - y) for c, (x, y) in
                          zip(col, (mul(self.twoB[descent][t], v) for v in cs)))
                    for t, col in enumerate(cols)]
        raise ArithmeticError("descent walk exceeded its step cap")

    def left_descents(self, word) -> frozenset:
        cols = self._inverse_columns(word)
        return frozenset(s for s in range(self.rank) if self.first_sign(cols[s]) < 0)

    def right_descents(self, word) -> frozenset:
        return frozenset(t for t in range(self.rank)
                         if self.first_sign(self.act(word, self.basis(t))) < 0)

    def inverse(self, word):
        return tuple(reversed(word))

    def coset_min(self, word, gens):
        """Canonical word of the shortest element of the coset w*W_I."""
        w = self.canonical(word)
        while True:
            d = self.right_descents(w) & gens
            if not d:
                return w
            w = self.canonical(w + (min(d),))

    def is_member(self, word, rep, gens) -> bool:
        """Whether w lies in rep W_I rep^{-1}: the canonical word of
        rep^{-1} w rep uses only letters of I (word criterion)."""
        conj = self.canonical(self.inverse(rep) + tuple(word) + tuple(rep))
        return set(conj) <= set(gens)

    def conjugated_gens(self, rep, gens):
        return [tuple(rep) + (s,) + self.inverse(rep) for s in sorted(gens)]

    def subgroup_le(self, a, b) -> bool:
        """Whether the parabolic a = (rep, gens) lies inside b = (rep, gens)."""
        return all(self.is_member(g, *b) for g in self.conjugated_gens(*a))

    def random_reduced(self, rng, length):
        """A canonical word grown one random ascent at a time, of the given
        length (shorter only if the longest element is reached)."""
        w = ()
        for _ in range(length):
            ascents = [s for s in range(self.rank) if s not in self.right_descents(w)]
            if not ascents:
                break
            w = self.canonical(w + (rng.choice(ascents),))
        return w

    def positive_roots(self, depth):
        """Positive roots through the given BFS depth, each with a word u and
        a letter s such that root = u(alpha_s), in discovery order."""
        found = {}
        frontier = []
        for s in range(self.rank):
            r = self.basis(s)
            found[r] = ((), s)
            frontier.append(r)
        for _ in range(depth):
            new = []
            for r in frontier:
                u, s0 = found[r]
                for s in range(self.rank):
                    img = self.reflect(s, r)
                    if self.first_sign(img) > 0 and img not in found:
                        found[img] = ((s,) + u, s0)
                        new.append(img)
            if not new:
                break
            frontier = new
        return found


def scaled_integer_point(fractions):
    """Rational pairings as (scale, integer ring coordinates)."""
    scale = math.lcm(*(f.denominator for f in fractions))
    return scale, tuple((int(f * scale), 0) for f in fractions)


def corpus_matrix(text: str):
    """Coxeter matrix of a corpus group file, None for unbounded labels."""
    rows = [ln.split() for ln in text.splitlines()
            if ln.strip() and not ln.startswith("#")][2:]
    return [[None if tok == "inf" else int(tok) for tok in row] for row in rows]
