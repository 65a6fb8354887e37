"""Coxeter systems and group elements in the canonical reflection representation.

A system is built from a Coxeter matrix.  Generators act on V = span(alpha_s)
by sigma_s(v) = v - 2*(alpha_s, v)*alpha_s with the bilinear form
(alpha_s, alpha_t) = -cos(pi/m_st) (value -1 for an unbounded label).  The
representation is faithful, and the all-ones dual point rho (pairing 1 with
every simple root) has trivial stabilizer, so w is determined by w(rho).
Elements store the ShortLex-least reduced word, recovered by the descent
recursion: the smallest s with l(s*w) < l(w) is the smallest s with
<w(rho), alpha_s> = <rho, w^{-1}(alpha_s)> < 0, so the word is the walk of
w(rho) back to rho, one dual step per letter.  A generator step, on a vector
or on a dual point, goes through the Coxeter-graph neighbours of s: the form
pairs alpha_s with alpha_t to 0 when m_st = 2, so every coordinate of a
commuting generator is left as it is.  A neighbour's coordinate moves by
2*cos(pi/m_st) times another, which is 1 for m_st = 3 and 2 for an unbounded
label: those edges, classified once from the labels, take one or two
additions, and only the labels 4, 5, 6, ... a field product.
There is one dual step (_apply_gen_dual, on a list in place), one loop
that steps a point through a word (_dual_steps) and one walk (_walk_dual):
normalize, locate, stabilizer, intersect and reflection_of_root walk, and
the descent sets, the BFS and the dual actions step.  The only difference
between systems is the ring of rho: an integral system (every label 2, 3
or unbounded) keeps rho in Z^n, so its rho-orbit is walked in Python ints
and its signs are int comparisons; any other system keeps rho in the
field.  Public actions and points hold field scalars in every system.
Every per-query action takes that step, the cached element matrices included:
their columns are the roots w(alpha_t).  Dense products of the generator
matrices are kept only as the reference route (compose_matrix and the
descent recursion on a matrix), which the checks compare the steps against.

A finite system (every component of its Coxeter graph classified finite)
with rank * |W| <= MAX_LEFT_TABLE, |W| read off the components' types,
keeps a table of left multiplication by the generators, s*g, filled lazily
and only by the rho-walk.  normalize folds a word through it, last letter
first, with no field arithmetic once the entries it meets are known.  A
fold walks missing entries while the letters those walks push stay within
the word's length, and past that walks the rest of the word once, so its
walks push at most twice as many letters as the word has.  Infinite,
unclassified and larger finite systems keep no table and walk every word.
"""

from __future__ import annotations

import math
import os

from .errors import (DimensionMismatch, InvalidMatrix, InvalidQuery, InvariantViolation,
                     MixedSystems, UnknownGenerator, require_count, require_instance,
                     require_iterable)
from .scalar import INFINITY, FieldContext, FieldScalar, build_field, cos_pi_over, validate_matrix

_DEFAULT_LABELS = "abcdefghijklmnopqrstuvwxyz"

_NORMALIZE_STEP_CAP = 100000

# entries of the left-multiplication table of a finite system, rank * |W|;
# a finite group past it keeps no table.  H4 needs 14,400 elements times
# 4 generators = 57,600
MAX_LEFT_TABLE = 1 << 16


def _first_sign(column) -> int:
    """Sign of the first nonzero coordinate; 0 for the zero vector.

    For root vectors the coordinate signs all agree, so this decides
    positivity with as few exact sign computations as possible.
    """
    for c in column:
        s = c.sign()
        if s:
            return s
    return 0


def _finite_order(matrix, gens) -> int:
    """|W| for an irreducible component on the generators gens whose form
    is positive definite, by its type: a path A_n, B_n, F_4, H_3, H_4 or
    I_2(m), or a tree with one branch node, D_n or E_6, E_7, E_8 (Humphreys
    1990, 2.4 and 2.11)."""
    n = len(gens)
    if n <= 2:
        return 2 if n == 1 else 2 * matrix[gens[0]][gens[1]]
    edges = {s: [t for t in gens if t != s and matrix[s][t] != 2] for s in gens}
    branch = [s for s in gens if len(edges[s]) == 3]
    if branch:
        # D_n has two leaves next to its branch node, E_n one
        if sum(len(edges[t]) == 1 for t in edges[branch[0]]) >= 2:
            return 2 ** (n - 1) * math.factorial(n)
        return {6: 51840, 7: 2903040, 8: 696729600}[n]
    top = max(matrix[s][t] for s in gens for t in edges[s])
    if top == 3:
        return math.factorial(n + 1)
    if top == 5:
        return 120 if n == 3 else 14400
    # one label 4: at an end of the path for B_n, in the middle for F_4
    if any(len(edges[s]) == 1 and matrix[s][edges[s][0]] == 4 for s in gens):
        return 2 ** n * math.factorial(n)
    return 1152


class CoxeterSystem:
    """A Coxeter matrix together with its field, bilinear form and generator
    matrices.  Identity semantics: elements belong to the system instance
    that created them, and operations never mix systems."""

    def __init__(self, matrix, labels=None):
        self.matrix = validate_matrix(matrix)
        self.rank = len(self.matrix)
        if labels is None:
            labels = _DEFAULT_LABELS[:self.rank]
        try:
            labels = tuple(str(l) for l in labels)
        except TypeError:
            raise InvalidMatrix(f"labels {labels!r} are not a sequence") from None
        if len(labels) != self.rank:
            raise InvalidMatrix("label count does not match the rank")
        if len(set(labels)) != self.rank or any(not l or l.split() != [l] for l in labels):
            raise InvalidMatrix("labels must be distinct nonempty tokens")
        self.labels = labels
        self._index = {l: i for i, l in enumerate(labels)}
        self._gens = frozenset(range(self.rank))
        self.field: FieldContext = build_field(self.matrix)
        n = self.rank
        form = []
        for i in range(n):
            row = []
            for j in range(n):
                m = self.matrix[i][j]
                c = cos_pi_over(self.field, m)
                row.append(-c)
            form.append(tuple(row))
        self.form = tuple(form)
        self._gen_matrices = tuple(self._build_generator_matrix(s) for s in range(n))
        # the Coxeter-graph neighbours t of s with m_st != 2, as (adds,
        # scaled): the step coefficient -2*B(alpha_s, alpha_t) = 2*cos(pi/m_st)
        # is 1 for m_st = 3 and 2 for an unbounded label, so adds lists t
        # once or twice; every finite label m_st >= 4 makes it irrational,
        # and scaled keeps the pairs (t, 2*cos(pi/m_st)) as field scalars
        self._neighbours = tuple(
            (tuple(t for t, m in enumerate(m_row) if m in (3, INFINITY))
             + tuple(t for t, m in enumerate(m_row) if m == INFINITY),
             tuple((t, -2 * b) for t, (m, b) in enumerate(zip(m_row, b_row)) if 3 < m < INFINITY))
            for m_row, b_row in zip(self.matrix, self.form))
        self._identity_matrix = tuple(
            tuple(self.field.one if i == j else self.field.zero for j in range(n))
            for i in range(n))
        self._check_representation()
        # with every label in {2, 3, inf} each dual step only negates and
        # adds, so the rho-orbit stays in Z^n and is walked in Python ints
        integral = not any(scaled for _, scaled in self._neighbours)
        self._rho = (1 if integral else self.field.one,) * n
        self._intern: dict = {}
        self._label_sets: dict = {}
        self.identity = self._element(())
        # left multiplication by the generators, s*g, one dict per s keyed by
        # g: None until the first normalize miss decides it, then a tuple of
        # dicts for a finite system within MAX_LEFT_TABLE and () for any other
        self._left_table = None
        self._bfs_layers: list[tuple[GroupElement, ...]] = [(self.identity,)]
        # g^{-1}(rho) for each g of the last BFS layer
        self._bfs_points = [self._rho]
        self._bfs_closed = False
        # tables derived from the system by other modules, built on first use:
        # the element table (oracle), the classified components of the Tits
        # cone (titscone)
        self.cache = {"oracle_table": None, "tits_cone": None}

    # -- construction checks -------------------------------------------------

    def _build_generator_matrix(self, s: int):
        n, B = self.rank, self.form
        cols = []
        for j in range(n):
            col = [self.field.one if i == j else self.field.zero for i in range(n)]
            col[s] = col[s] - 2 * B[s][j]
            cols.append(col)
        return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))

    def _matmul(self, X, Y):
        n = self.rank
        return tuple(
            tuple(sum((X[i][k] * Y[k][j] for k in range(n)), self.field.zero)
                  for j in range(n))
            for i in range(n))

    def compose_matrix(self, letters):
        """Matrix of the product of the listed generators, in word order, as
        a product of dense generator matrices: the reference route that the
        neighbour-table actions are checked against."""
        M = self._identity_matrix
        for s in letters:
            M = self._matmul(M, self._gen_matrices[s])
        return M

    def _check_representation(self) -> None:
        """Exact checks at build time: every generator matrix is an involution
        and preserves the bilinear form."""
        n, B = self.rank, self.form
        for s, M in enumerate(self._gen_matrices):
            if self._matmul(M, M) != self._identity_matrix:
                raise InvariantViolation(
                    f"generator {self.labels[s]} is not an involution")
            MT = tuple(tuple(M[i][j] for i in range(n)) for j in range(n))
            if self._matmul(MT, self._matmul(B, M)) != B:
                raise InvariantViolation(
                    f"generator {self.labels[s]} does not preserve the form")

    # -- fast generator actions ----------------------------------------------

    def _apply_gen_vec(self, s: int, vec):
        """sigma_s applied to a vector in simple-root coordinates: only v_s
        changes, to v_s - 2*B(alpha_s, v) = -v_s + sum 2*cos(pi/m_st) * v_t
        over the neighbours t of s, as 2*B[s][s] = 2.  A label 3 adds v_t
        once and an unbounded label twice; only the labels 4, 5, 6, ...
        take a field product.  Every other coordinate comes back as the same
        object."""
        adds, scaled = self._neighbours[s]
        acc = -vec[s]
        for t in adds:
            acc = acc + vec[t]
        for t, c in scaled:
            acc = acc + c * vec[t]
        out = list(vec)
        out[s] = acc
        return tuple(out)

    def _apply_gen_dual(self, s: int, q) -> None:
        """The dual action of sigma_s, in place on a list q of a point's
        pairings with the simple roots: f_t -> f_t - 2*B[s][t]*f_s.  That is
        f_s -> -f_s, f_t -> f_t + 2*cos(pi/m_st) * f_s for the neighbours t
        of s: f_s is added once for a label 3 and twice for an unbounded
        label, and only the labels 4, 5, 6, ... take a field product.  The
        pairings are ints or field scalars alike; a commuting t's coordinate
        (and cached sign) is left as the same object, and -f_s carries f_s's
        cached sign, negated, so a walk never re-tests the letter it took."""
        fs = q[s]
        q[s] = -fs
        adds, scaled = self._neighbours[s]
        for t in adds:
            q[t] += fs
        if scaled:
            for t, c in scaled:
                q[t] += c * fs

    def _dual_steps(self, letters, q) -> list:
        """The dual action of each letter in turn, in place on the list q of
        a point's pairings, which it returns: letters s_1, ..., s_k apply
        s_k ... s_1.  Every dual action of a word is this one loop."""
        step = self._apply_gen_dual
        for s in letters:
            step(s, q)
        return q

    def _dual_image(self, s: int, coords) -> tuple:
        """sigma_s applied to a dual point, as a new tuple: the hashable form
        of _apply_gen_dual, for tables keyed by point."""
        return tuple(self._dual_steps((s,), list(coords)))

    def _walk_dual(self, q, gens, step_cap: int):
        """Walk a dual point, the list q of its pairings, stepped in place,
        with the generators gens, given in increasing order: while some of
        them pairs negatively with the point, apply the smallest such one.
        Returns the letters applied, in order, or None if step_cap steps do
        not end the walk; either way q is left at the point reached."""
        letters, step = [], self._apply_gen_dual
        while True:
            for s in gens:
                if q[s] < 0:
                    break
            else:
                return letters
            if len(letters) >= step_cap:
                return None
            step(s, q)
            letters.append(s)

    def _negative_set(self, coords) -> frozenset[int]:
        """The generators pairing negatively with a dual point."""
        return self.label_set(s for s, c in enumerate(coords) if c < 0)

    def _rho_image(self, letters) -> list:
        """The pairings of w(rho) for w the product of letters, as a list:
        one dual step per letter, last to first."""
        return self._dual_steps(reversed(letters), list(self._rho))

    # -- words and elements ----------------------------------------------------

    def generator(self, i: int) -> "GroupElement":
        return self._element(self.check_letters((i,)))

    @property
    def generators(self) -> tuple["GroupElement", ...]:
        return tuple(self.generator(i) for i in range(self.rank))

    def parse_word(self, text: str) -> tuple[int, ...]:
        """Whitespace-separated generator labels; the empty string (or 'e',
        when 'e' is not itself a label) denotes the identity."""
        if not isinstance(text, str):
            raise InvalidQuery(f"word text {text!r} is not a string")
        text = text.strip()
        if not text or (text == "e" and "e" not in self._index):
            return ()
        letters = []
        for tok in text.split():
            if tok not in self._index:
                raise UnknownGenerator(f"unknown generator label {tok!r}")
            letters.append(self._index[tok])
        return tuple(letters)

    def format_word(self, letters) -> str:
        if not letters:
            return "e"
        return " ".join(self.labels[s] for s in letters)

    def check_letters(self, letters) -> tuple[int, ...]:
        letters = tuple(require_iterable(letters, "word"))
        # a word of plain int indices passes at C speed; anything else is
        # checked letter by letter
        if not (set(map(type, letters)) <= {int} and self._gens.issuperset(letters)):
            for s in letters:
                # bool is an int subclass, but True is no generator index
                if isinstance(s, bool) or not (isinstance(s, int) and 0 <= s < self.rank):
                    raise UnknownGenerator(f"generator index {s!r} out of range")
        return letters

    def _element(self, reduced_word: tuple[int, ...]) -> "GroupElement":
        el = self._intern.get(reduced_word)
        if el is None:
            el = GroupElement(self, reduced_word)
            self._intern[reduced_word] = el
        return el

    def _word_from_inverse_matrix(self, N):
        """Greedy descent recursion on the matrix N of w^{-1}, the reference
        route for the walks: emits the ShortLex-least reduced word of w, or
        None if the walk does not reach the identity within the cap.  Each
        step is the dense product N * M_s, independent of the neighbour
        table."""
        n = self.rank
        word = []
        for _ in range(_NORMALIZE_STEP_CAP):
            descent = None
            for s in range(n):
                sign = _first_sign(tuple(N[i][s] for i in range(n)))
                if sign < 0:
                    descent = s
                    break
            if descent is None:
                if N == self._identity_matrix:
                    return tuple(word)
                return None
            word.append(descent)
            N = self._matmul(N, self._gen_matrices[descent])
        return None

    def _left_tables(self) -> tuple:
        """The left-multiplication table, one dict {g: s*g} per generator s,
        filled by normalize; () unless every component of the Coxeter graph
        is classified finite and the rank * |W| entries fit MAX_LEFT_TABLE.
        Decided once, on first use, with no enumeration."""
        if self._left_table is None:
            from .titscone import cone_components
            components = cone_components(self)
            fits = (all(c.kind == "finite" for c in components)
                    and self.rank * math.prod(_finite_order(self.matrix, c.gens)
                                              for c in components) <= MAX_LEFT_TABLE)
            self._left_table = tuple({} for _ in range(self.rank)) if fits else ()
        return self._left_table

    def _walk_word(self, letters) -> "GroupElement":
        """Canonical element of a word by the rho-walk: q = w(rho) takes one
        dual step per letter, last to first (_rho_image).  The walk of q back
        to rho applies, at each step, the smallest s pairing negatively with
        the point: <w(rho), alpha_s> < 0 exactly when w^{-1}(alpha_s) < 0, so
        s is the smallest left descent, and the letters walked spell the
        ShortLex-least reduced word.  The walk takes l(w) <= len(letters)
        steps and ends at rho; the negative pairings of its start point, w's
        left descents, are stored on the element."""
        q = self._rho_image(letters)
        descents = [s for s, c in enumerate(q) if c < 0]
        word = self._walk_dual(q, range(self.rank), len(letters))
        # a walk cut at the cap still pairs negatively with some generator
        if word is None or tuple(q) != self._rho:
            raise InvariantViolation("the descent walk of w(rho) did not end at rho")
        el = self._element(tuple(word))
        if el._left_descents is None:
            el._left_descents = self.label_set(descents)
        return el

    def normalize(self, letters) -> "GroupElement":
        """Canonical element for an arbitrary word over the generators.

        A canonical word is looked up among the interned elements.  In a
        finite system within MAX_LEFT_TABLE, any other word is folded, last
        letter first, through the table of left multiplication by the
        generators (_left_tables).  A missing entry s*g is the rho-walk of
        (s,) + g.word, stored, while the letters those walks push stay
        within the word's length; past that, the unfolded letters and the
        word of the product so far are walked once.  Infinite, unclassified
        and larger finite systems keep no table and walk the word
        (_walk_word).
        """
        return self._normalize(self.check_letters(letters))

    def _normalize(self, letters: tuple[int, ...]) -> "GroupElement":
        """normalize for letters already checked, such as those of canonical
        words."""
        el = self._intern.get(letters)
        if el is not None:
            return el
        table = self._left_tables()
        if not table:
            return self._walk_word(letters)
        el, budget = self.identity, len(letters)
        for i in range(len(letters) - 1, -1, -1):
            row = table[letters[i]]
            h = row.get(el)
            if h is None:
                if el.length >= budget:
                    return self._walk_word(letters[:i + 1] + el.word)
                budget -= el.length + 1
                h = row[el] = self._walk_word((letters[i],) + el.word)
            el = h
        return el

    def element(self, text: str) -> "GroupElement":
        """Canonical element for a word given as a string of labels."""
        return self.normalize(self.parse_word(text))

    # -- enumeration ------------------------------------------------------------

    def elements_up_to(self, length: int) -> tuple[tuple[tuple["GroupElement", ...], ...], bool]:
        """BFS layers of elements by length, up to the given length.  Returns
        (layers, closed); closed means the last layer is the longest element,
        the one element with every generator as a right descent.  Layers are
        sorted by word, so the enumeration order is deterministic, and are
        tuples: the BFS keeps extending them, so no caller may edit them.

        Canonical words are closed under prefixes (dropping the last letter of
        a length-lex least reduced word leaves a length-lex least reduced
        word), so extending the frontier in word order by ascending
        non-descent letters reaches every new element through its canonical
        word first.  Each element g carries the point g^{-1}(rho): for
        h = g*s that is s applied to g's point, one dual step.  Its negative
        pairings are h's right descents, and duplicates are recognized by
        equal points, rho having trivial stabilizer.  A length that is not a
        nonnegative int raises InvalidQuery.
        """
        require_count(length, "length")
        layers = self._bfs_layers
        while not self._bfs_closed and len(layers) <= length:
            new, points = [], []
            seen = set()
            for g, p in zip(layers[-1], self._bfs_points):
                for s in range(self.rank):
                    if s in g.right_descents:
                        continue
                    q = self._dual_image(s, p)
                    if q in seen:
                        continue
                    seen.add(q)
                    h = self._element(g.word + (s,))
                    if h._right_descents is None:
                        h._right_descents = self._negative_set(q)
                    new.append(h)
                    points.append(q)
            layers.append(tuple(new))
            self._bfs_points = points
            self._bfs_closed = all(len(h._right_descents) == self.rank for h in new)
        return tuple(layers[:length + 1]), self._bfs_closed and len(layers) <= length + 1

    # -- misc ---------------------------------------------------------------------

    def form_value(self, u, v) -> FieldScalar:
        """Bilinear form (u, v) on simple-root coordinates."""
        u, v = (tuple(require_iterable(x, "coordinates")) for x in (u, v))
        if len(u) != self.rank or len(v) != self.rank:
            raise DimensionMismatch("coordinate length does not match the rank")
        total = self.field.zero
        for i, ui in enumerate(u):
            if ui:
                row = self.form[i]
                total = total + ui * sum((b * vj for b, vj in zip(row, v)),
                                         self.field.zero)
        return total

    def _field_coords(self, coords) -> tuple[FieldScalar, ...]:
        """coords as a tuple of scalars of this system's field, one per
        generator: ints and Fractions are converted, anything else raises
        MixedFields."""
        coords = tuple(require_iterable(coords, "coordinates"))
        if len(coords) != self.rank:
            raise DimensionMismatch("coordinate length does not match the rank")
        return tuple(map(self.field.coerce, coords))

    def basis_vector(self, s: int):
        """The simple root alpha_s in simple-root coordinates."""
        return self._identity_matrix[self.check_letters((s,))[0]]

    def label_set(self, gens) -> frozenset[int]:
        """Generator subset from an iterable of indices or labels.  Equal
        subsets come back as one shared frozenset per system."""
        if type(gens) is frozenset and self._label_sets.get(gens) is gens:
            return gens
        out = set()
        for g in require_iterable(gens, "generator set"):
            if isinstance(g, str):
                if g not in self._index:
                    raise UnknownGenerator(f"unknown generator label {g!r}")
                out.add(self._index[g])
            elif isinstance(g, int) and not isinstance(g, bool) and 0 <= g < self.rank:
                out.add(g)
            else:
                raise UnknownGenerator(f"generator {g!r} out of range")
        out = frozenset(out)
        return self._label_sets.setdefault(out, out)

    def format_gens(self, gens) -> str:
        return "{" + ", ".join(self.labels[s] for s in sorted(gens)) + "}"

    def __repr__(self):
        entries = ", ".join(self.labels)
        return f"CoxeterSystem(rank={self.rank}, labels=[{entries}])"


class GroupElement:
    """A group element in canonical form: the ShortLex-least reduced word.

    Instances are interned per system, so equal elements are the same object;
    the matrix and the descent sets are cached on first use.
    """

    __slots__ = ("system", "word", "_matrix", "_left_descents", "_right_descents",
                 "_hash")

    def __init__(self, system: CoxeterSystem, word: tuple[int, ...]):
        self.system = system
        self.word = word
        self._matrix = None
        self._left_descents = None
        self._right_descents = None
        self._hash = hash((id(system), word))

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def is_identity(self) -> bool:
        return not self.word

    @property
    def matrix(self):
        """Matrix in simple-root coordinates: column t is the root
        w(alpha_t), computed by act through the neighbour table.
        CoxeterSystem.compose_matrix is the dense reference for it."""
        if self._matrix is None:
            self._matrix = tuple(zip(*map(self.act, self.system._identity_matrix)))
        return self._matrix

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.system is not self.system:
            raise MixedSystems("elements belong to different systems")
        return self.system._normalize(self.word + other.word)

    def inverse(self) -> "GroupElement":
        return self.system._normalize(self.word[::-1])

    @property
    def left_descents(self) -> frozenset[int]:
        """Generators s with l(s*w) < l(w): w^{-1}(alpha_s) is a negative root,
        so <w(rho), alpha_s> < 0 for the all-ones point rho.  The rho-walk
        (_walk_word) records them as it starts."""
        if self._left_descents is None:
            sys = self.system
            self._left_descents = sys._negative_set(sys._rho_image(self.word))
        return self._left_descents

    @property
    def right_descents(self) -> frozenset[int]:
        """Generators t with l(w*t) < l(w): w(alpha_t) is a negative root, so
        <rho, w(alpha_t)> < 0, one of the root pairings of rho: the pairings
        of w^{-1}(rho), stepped as in left_descents."""
        if self._right_descents is None:
            sys = self.system
            self._right_descents = sys._negative_set(sys._rho_image(self.word[::-1]))
        return self._right_descents

    def act(self, vec):
        """Image of a vector in simple-root coordinates under this element.
        Coordinates are coerced into the system's field, as for Root."""
        sys = self.system
        out = sys._field_coords(vec)
        for s in reversed(self.word):
            out = sys._apply_gen_vec(s, out)
        return out

    def act_dual_coords(self, coords):
        """Dual action on pairing coordinates: <w f, alpha_t> = <f, w^{-1} alpha_t>.
        Coordinates are coerced into the system's field, as for DualPoint."""
        sys = self.system
        return tuple(sys._dual_steps(reversed(self.word), list(sys._field_coords(coords))))

    def root_pairings(self, coords):
        """The pairings <f, w(alpha_t)> = <w^{-1} f, alpha_t>: the dual action
        of w^{-1} on f, one generator step per letter, first to last.
        Coordinates are coerced into the system's field, as for DualPoint."""
        sys = self.system
        return tuple(sys._dual_steps(self.word, list(sys._field_coords(coords))))

    def fixes_dual_coords(self, coords) -> bool:
        """Whether the dual action fixes the point f, as w^{-1} does: iff
        <f, w(alpha_t)> = f_t for every t."""
        return self.root_pairings(coords) == tuple(coords)

    def __eq__(self, other):
        if isinstance(other, GroupElement):
            return self.system is other.system and self.word == other.word
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __str__(self):
        return self.system.format_word(self.word)

    def __repr__(self):
        return f"<{self}>"


def build_system(matrix, labels=None) -> CoxeterSystem:
    """Build a Coxeter system from a matrix and optional generator labels."""
    return CoxeterSystem(matrix, labels)


def order_of_product(system: CoxeterSystem, s: int, t: int):
    """Multiplicative order of sigma_s * sigma_t by exact matrix powering.

    For a finite label the order must come out equal to m_st; for an
    unbounded label the first 64 powers are checked not to close up and
    INFINITY is returned.
    """
    letters = require_instance(system, CoxeterSystem, "system").check_letters((s, t))
    m = system.matrix[letters[0]][letters[1]]
    M = system.compose_matrix(letters)
    P = M
    bound = 64 if m == INFINITY else m
    for k in range(1, bound + 1):
        if P == system._identity_matrix:
            if k != m:
                raise InvariantViolation(
                    f"product order {k} disagrees with the Coxeter matrix label {m}")
            return k
        P = system._matmul(P, M)
    if m != INFINITY:
        raise InvariantViolation(
            f"product order exceeds the Coxeter matrix label {m}")
    return INFINITY


# ---------------------------------------------------------------------------
# group files


def parse_group_file(text: str) -> CoxeterSystem:
    """Parse the plain-text group format:

        rank 3
        labels a b c
        1 3 2
        3 1 3
        2 3 1

    Matrix entries are positive integers (ASCII digits) or ``inf``.  Blank
    lines and lines starting with '#' are ignored.
    """
    lines = [ln.strip() for ln in require_instance(text, str, "group file text").splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 2:
        raise InvalidMatrix("group file needs a rank line and a labels line")
    head = lines[0].split()
    # isascii: str.isdigit alone also accepts digits such as '²' that int() rejects
    if (len(head) != 2 or head[0] != "rank" or not head[1].isascii()
            or not head[1].isdigit() or int(head[1]) < 1):
        raise InvalidMatrix(f"bad rank line {lines[0]!r}")
    n = int(head[1])
    lab = lines[1].split()
    if not lab or lab[0] != "labels" or len(lab) != n + 1:
        raise InvalidMatrix(f"bad labels line {lines[1]!r}")
    labels = lab[1:]
    if len(lines) != 2 + n:
        raise InvalidMatrix(f"expected {n} matrix rows, found {len(lines) - 2}")
    matrix = []
    for ln in lines[2:]:
        row = []
        for tok in ln.split():
            if tok == "inf":
                row.append(INFINITY)
            elif tok.isascii() and tok.isdigit():
                row.append(int(tok))
            else:
                raise InvalidMatrix(f"bad matrix entry {tok!r}")
        matrix.append(row)
    return CoxeterSystem(matrix, labels)


def serialize_group(system: CoxeterSystem) -> str:
    require_instance(system, CoxeterSystem, "system")
    lines = [f"rank {system.rank}", "labels " + " ".join(system.labels)]
    for row in system.matrix:
        lines.append(" ".join("inf" if e == INFINITY else str(e) for e in row))
    return "\n".join(lines) + "\n"


def load_group_file(path) -> CoxeterSystem:
    """The group file at path, a str or os.PathLike.  Anything else raises
    InvalidQuery: open() would take an int as a file descriptor, and close
    it."""
    if not isinstance(path, (str, os.PathLike)):
        raise InvalidQuery(f"group file path {path!r} is not a str or os.PathLike")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_group_file(fh.read())
    except UnicodeDecodeError:
        raise InvalidMatrix(f"group file {str(path)!r} is not UTF-8 text") from None
