import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxkit import corpus, coxgroup
from coxkit.coxgroup import (_first_sign, build_system, order_of_product,
                             parse_group_file, serialize_group)
from coxkit.errors import (DimensionMismatch, InvalidMatrix, InvalidQuery,
                           InvariantViolation, MixedFields, MixedSystems,
                           UnknownGenerator)
from coxkit.oracle import brute_pc, enumerate_group
from coxkit.parabolic import conjugacy_normalize, intersect, make
from coxkit.paraclose import ClosureQuery, pc
from coxkit.roots import Root, descend_root, reflection_of_root, root_of
from coxkit.titscone import DualPoint, cone_components, fundamental_point, locate
from coxkit.scalar import INFINITY, FieldScalar

from groupmodels import MODELS

INF = math.inf


# -- construction --------------------------------------------------------------


def test_gram_matrix_a2(a2):
    half = a2.field.from_rational(Fraction(1, 2))
    assert a2.form[0][0] == a2.field.one
    assert a2.form[0][1] == -half
    assert a2.form[1][0] == -half


def test_gram_matrix_infinite_dihedral(dinf):
    one = dinf.field.one
    assert dinf.form == ((one, -one), (-one, one))


def test_asymmetric_matrix_rejected():
    with pytest.raises(InvalidMatrix):
        build_system(((1, 3), (4, 1)))


@pytest.mark.parametrize("matrix, labels", [
    (5, None), ([5], None), ([[1, 3], [3, 1]], 5),
], ids=["int-matrix", "int-row", "int-labels"])
def test_matrix_or_labels_that_are_not_sequences_rejected(matrix, labels):
    # an InvalidMatrix, not a bare TypeError
    with pytest.raises(InvalidMatrix):
        build_system(matrix, labels)


def test_bad_labels_rejected():
    with pytest.raises(InvalidMatrix):
        build_system(((1, 3), (3, 1)), labels=("s", "s"))
    with pytest.raises(InvalidMatrix):
        build_system(((1, 3), (3, 1)), labels=("s",))


def test_representation_involution_checked_on_build(b3):
    for s in range(b3.rank):
        M = b3.generator(s).matrix
        assert b3._matmul(M, M) == b3._identity_matrix


# -- the geometric action ------------------------------------------------------


def test_generator_negates_own_root(a2):
    s = a2.generator(0)
    alpha = a2.basis_vector(0)
    assert s.act(alpha) == tuple(-c for c in alpha)


def test_identity_acts_trivially(b3):
    v = tuple(b3.field.from_rational(q) for q in (Fraction(2, 3), -1, 5))
    assert b3.identity.act(v) == v


def test_infinite_dihedral_product_action(dinf):
    st_elt = dinf.element("s t")
    image = st_elt.act(dinf.basis_vector(0))
    three = dinf.field.from_rational(3)
    two = dinf.field.from_rational(2)
    assert image == (three, two)


_ACTIONS = {
    "act": lambda g, coords: g.act(coords),
    "act_dual_coords": lambda g, coords: g.act_dual_coords(coords),
    "root_pairings": lambda g, coords: tuple(g.root_pairings(coords)),
}


@pytest.mark.parametrize("action", sorted(_ACTIONS))
@pytest.mark.parametrize("word", ["", "a", "a b"])
def test_action_coordinates_are_coerced_into_the_field(action, word):
    h3 = corpus.load("h3")
    g, apply = h3.element(word), _ACTIONS[action]
    for coords in [(1, 0, 0), (1, 1, 1), (Fraction(1, 2), -1, Fraction(-7, 3))]:
        out = apply(g, coords)
        assert all(type(c) is FieldScalar and c.ctx is h3.field for c in out)
        assert out == apply(g, tuple(map(h3.field.coerce, coords)))
        assert all(c.sign() in (-1, 0, 1) for c in out)
    for bad in [(1.0, 0, 0), (1, corpus.load("b3").field.one, 0)]:
        with pytest.raises(MixedFields):
            apply(g, bad)
    with pytest.raises(DimensionMismatch):
        apply(g, (1, 0))


# -- normal forms --------------------------------------------------------------


def test_square_cancels(a2):
    assert a2.element("s s").is_identity
    assert a2.element("s s").word == ()


def test_braid_normal_form(a2):
    assert a2.element("t s t").word == a2.element("s t s").word == (0, 1, 0)
    assert str(a2.element("t s t")) == "s t s"


def test_four_letter_word_reduces(a2):
    assert str(a2.element("s t s t")) == "t s"


def test_mult_inv_length(a2):
    s, t = a2.generators
    assert (s * s).is_identity
    assert a2.element("s t").inverse() == a2.element("t s")
    assert a2.element("s t s").length == 3


def test_unknown_label(a2):
    with pytest.raises(UnknownGenerator):
        a2.element("s q")


def test_mixed_systems_rejected(a2, b2):
    with pytest.raises(MixedSystems):
        a2.generator(0) * b2.generator(0)


def test_descents(a2):
    g = a2.element("s t")
    assert g.left_descents == frozenset({0})
    assert g.right_descents == frozenset({1})
    assert a2.identity.left_descents == frozenset()


# -- product orders ------------------------------------------------------------


def test_order_of_product_examples(a2, b2, dinf):
    assert order_of_product(a2, 0, 1) == 3
    assert order_of_product(b2, 0, 1) == 4
    assert order_of_product(dinf, 0, 1) == INFINITY


@pytest.mark.parametrize("cap", [True, 0, -3, "x", 2.5])
def test_order_of_product_rejects_bad_cap(dinf, cap):
    # True would check one power, and 0 or -3 none, before answering INFINITY
    with pytest.raises(InvalidQuery):
        order_of_product(dinf, 0, 1, cap)


@pytest.mark.parametrize("label", [2, 4, INFINITY])
def test_order_of_product_rejects_tampered_label(label):
    # the order comes from the generator matrices, so a label that no longer
    # matches them raises a typed error (not an assert, so also under -O)
    system = build_system(((1, 3), (3, 1)))
    system.matrix = ((1, label), (label, 1))
    with pytest.raises(InvariantViolation):
        order_of_product(system, 0, 1)


# -- group files ---------------------------------------------------------------


def test_group_file_round_trip(tmp_path):
    for name in corpus.NAMES:
        text = corpus.source(name)
        system = parse_group_file(text)
        again = parse_group_file(serialize_group(system))
        assert again.matrix == system.matrix
        assert again.labels == system.labels


def test_group_file_rejects_malformed():
    with pytest.raises(InvalidMatrix):
        parse_group_file("rank 2\nlabels s t\n1 3\n")
    with pytest.raises(InvalidMatrix):
        parse_group_file("")
    # Unicode digits pass str.isdigit but not int()
    with pytest.raises(InvalidMatrix):
        parse_group_file("rank \u00b2\nlabels s t\n1 3\n3 1\n")
    with pytest.raises(InvalidMatrix):
        parse_group_file("rank 2\nlabels s t\n\u00b9 3\n3 1\n")


# -- agreement with concrete models ---------------------------------------------


@pytest.mark.parametrize("name", sorted(set(MODELS) - {"dihedral_inf"}))
def test_lengths_match_model(name):
    system = corpus.load(name)
    model = MODELS[name]()
    dist = model.bfs_lengths()
    elements = enumerate_group(system, 1000).elements
    assert len(elements) == len(dist)
    seen = {}
    for g in elements:
        image = model.word(g.word)
        assert dist[image] == g.length
        assert image not in seen, "two canonical words map to one model element"
        seen[image] = g


@pytest.mark.parametrize("name", sorted(MODELS))
def test_products_match_model(name):
    system = corpus.load(name)
    model = MODELS[name]()
    import random
    rng = random.Random(5)
    for _ in range(150):
        u = [rng.randrange(system.rank) for _ in range(rng.randint(0, 7))]
        v = [rng.randrange(system.rank) for _ in range(rng.randint(0, 7))]
        engine = system.normalize(u) * system.normalize(v)
        assert model.word(engine.word) == model.word(u + v)


def test_infinite_dihedral_lengths_match_model(dinf):
    model = MODELS["dihedral_inf"]()
    dist = model.bfs_lengths(max_length=9)
    layers, closed = dinf.elements_up_to(9)
    assert not closed
    for layer in layers:
        for g in layer:
            assert dist[model.word(g.word)] == g.length


# -- property tests ------------------------------------------------------------


_SYS = corpus.load("b2")
_words = st.lists(st.integers(0, _SYS.rank - 1), max_size=10)


@given(_words)
def test_normalize_idempotent(w):
    g = _SYS.normalize(w)
    assert _SYS.normalize(g.word) == g
    assert len(g.word) <= len(w)
    assert (len(w) - len(g.word)) % 2 == 0


@given(_words)
def test_inverse_involution(w):
    g = _SYS.normalize(w)
    assert g.inverse().inverse() == g
    assert g.inverse().length == g.length
    assert (g * g.inverse()).is_identity


@given(_words, _words)
def test_length_subadditive(u, v):
    a, b = _SYS.normalize(u), _SYS.normalize(v)
    c = a * b
    assert c.length <= a.length + b.length
    assert (c.length - a.length - b.length) % 2 == 0


_HYP = corpus.load("hyperbolic_334")


@given(_words, st.lists(st.integers(0, _HYP.rank - 1), max_size=10))
def test_descent_shortens(w, v):
    for system, word in ((_SYS, w), (_HYP, v)):
        g = system.normalize(word)
        for s in range(system.rank):
            left = g.length - 1 if s in g.left_descents else g.length + 1
            assert (system.generator(s) * g).length == left
            right = g.length - 1 if s in g.right_descents else g.length + 1
            assert (g * system.generator(s)).length == right


# labels 3, 3 and inf: a hyperbolic triangle group outside the corpus
_TRIANGLE = parse_group_file("rank 3\nlabels a b c\n1 3 inf\n3 1 3\ninf 3 1\n")
_NORMALIZE_SYSTEMS = [corpus.load(name) for name in corpus.NAMES] + [_TRIANGLE]

# labels 3, 4, 3 and inf on a square: a, c and b, d commute
_SQUARE = parse_group_file(
    "rank 4\nlabels a b c d\n1 3 2 inf\n3 1 4 2\n2 4 1 3\ninf 2 3 1\n")


@st.composite
def _field_points(draw, system):
    coeffs = st.lists(st.fractions(-3, 3, max_denominator=4),
                      min_size=system.field.degree, max_size=system.field.degree)
    return tuple(system.field.scalar(draw(coeffs)) for _ in range(system.rank))


@given(st.data())
def test_generator_actions_through_the_neighbour_table(data):
    # the dense routes: f_t - 2B[s][t]*f_s on a dual point, and the generator
    # matrix times a vector
    system = data.draw(st.sampled_from(_NORMALIZE_SYSTEMS + [_SQUARE]))
    f = data.draw(_field_points(system))
    n, zero = system.rank, system.field.zero
    for s in range(n):
        dual = list(f)
        system._apply_gen_dual(s, dual)
        assert dual == [f[t] - 2 * system.form[s][t] * f[s] for t in range(n)]
        assert system._dual_image(s, f) == tuple(dual)
        M = system._gen_matrices[s]
        vec = system._apply_gen_vec(s, f)
        assert vec == tuple(sum((M[i][j] * f[j] for j in range(n)), zero) for i in range(n))
        # a generator moves no coordinate of a commuting generator
        assert all(dual[t] is f[t] for t in range(n) if system.matrix[s][t] == 2)
        assert all(vec[t] is f[t] for t in range(n) if t != s)


def _count_products(monkeypatch):
    # a list of FieldScalar products made while the patch is on
    calls = []
    for name in ("__mul__", "__rmul__"):
        def counted(self, other, _name=name, _original=getattr(FieldScalar, name)):
            calls.append(_name)
            return _original(self, other)
        monkeypatch.setattr(FieldScalar, name, counted)
    return calls


@pytest.mark.parametrize("system, products", [
    (corpus.load("affine_a2"), [0, 0, 0]),
    (_TRIANGLE, [0, 0, 0]),
    # m_ac = 4 and every other label 3: one product per label-4 neighbour
    (corpus.load("hyperbolic_334"), [1, 0, 1]),
], ids=["affine_a2", "triangle_33inf", "hyperbolic_334"])
def test_generator_steps_multiply_only_on_irrational_labels(monkeypatch, system, products):
    # 2*cos(pi/m) is 1 for m = 3 and 2 for an unbounded label, so those
    # edges move a coordinate by additions alone
    field = system.field
    point = tuple(field.scalar([k + 1, -k] if field.degree > 1 else [k + 1])
                  for k in range(system.rank))
    calls = _count_products(monkeypatch)
    for s, expected in enumerate(products):
        for step in (system._apply_gen_dual, system._apply_gen_vec):
            del calls[:]
            step(s, list(point))
            assert len(calls) == expected, (step.__name__, s)


@given(st.data())
def test_element_matrix_is_the_dense_product(data):
    # the cached matrix, built by generator steps, against the product of
    # the dense generator matrices over the unreduced word
    system = data.draw(st.sampled_from(_NORMALIZE_SYSTEMS + [_SQUARE]))
    word = data.draw(st.lists(st.integers(0, system.rank - 1), max_size=24))
    assert system.normalize(word).matrix == system.compose_matrix(word)


@pytest.mark.parametrize("name", ["a3", "b3", "h3", *corpus.INFINITE_NAMES])
def test_root_pairings_pair_with_the_dense_product_columns(name):
    # <f, w(alpha_t)> by one dual step per letter, against f paired with
    # column t of the product of the dense generator matrices
    system = corpus.load(name)
    if name in corpus.FINITE_NAMES:
        elements = enumerate_group(system).elements
    else:
        elements = [system.normalize(word) for word in _random_words(system, 40, 11)]
    rng = random.Random(12)
    for g in elements:
        f = system._field_coords(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                 for _ in range(system.rank))
        M = system.compose_matrix(g.word)
        columns = zip(*M)
        assert g.root_pairings(f) == tuple(
            sum((c * x for c, x in zip(f, column)), system.field.zero) for column in columns), g


def _inverse_matrix(system, word):
    """M(w^{-1}) for the word w, by dense products."""
    N = system._identity_matrix
    for s in word:
        N = system._matmul(system._gen_matrices[s], N)
    return N


def _negative_columns(system, M):
    n = system.rank
    return frozenset(t for t in range(n) if _first_sign([M[i][t] for i in range(n)]) < 0)


@given(st.data())
def test_normalize_walk_matches_the_matrix_descent_recursion(data):
    # independent route: M(w^{-1}) composed by dense products, then the
    # descent recursion on its columns; M(w) composed the same way
    system = data.draw(st.sampled_from(_NORMALIZE_SYSTEMS))
    word = data.draw(st.lists(st.integers(0, system.rank - 1), max_size=80))
    N = _inverse_matrix(system, word)
    g = system.normalize(word)
    assert g.word == system._word_from_inverse_matrix(N)
    assert g.left_descents == _negative_columns(system, N)
    assert g.right_descents == _negative_columns(system, system.compose_matrix(word))


# sha256 prefixes of the BFS layers' words as the matrix-based enumeration
# produced them: finite groups whole, infinite ones through length 8
_LAYER_DIGESTS = {
    "a2": "053fddb346b4ee05",
    "b2": "3fdf4fc787f25f46",
    "g2": "9d97695c584824dc",
    "a1xa1": "65111fd16c802a00",
    "a3": "6367546dbd537aa5",
    "b3": "99149b0efc92f7b7",
    "h3": "f8bea99196459a23",
    "dihedral_inf": "2941d52ea936cdaf",
    "affine_a2": "6a69e7816d00becc",
    "hyperbolic_334": "c4c10ce348b10286",
}


@pytest.mark.parametrize("name", corpus.NAMES)
def test_enumeration_layers_unchanged(name):
    # a fresh system, extended in two calls so that the second resumes
    # from the points the first left
    system = parse_group_file(corpus.source(name))
    horizon = 100 if name in corpus.FINITE_NAMES else 8
    system.elements_up_to(2)
    layers, closed = system.elements_up_to(horizon)
    assert closed == (name in corpus.FINITE_NAMES)
    text = "|".join(" ".join("".join(map(str, g.word)) for g in layer) for layer in layers)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == _LAYER_DIGESTS[name]
    for layer in layers:
        for g in layer:
            assert g.right_descents == _negative_columns(system, g.matrix)


def test_enumeration_closes_at_the_longest_element_on_a_fresh_system():
    # closed once used to need a later call to ask for one more layer
    h3 = parse_group_file(corpus.source("h3"))
    assert h3.elements_up_to(15)[1] and not h3.elements_up_to(14)[1]
    b3 = parse_group_file(corpus.source("b3"))
    assert not b3.elements_up_to(8)[1] and b3.elements_up_to(9)[1]
    affine = parse_group_file(corpus.source("affine_a2"))
    assert not any(affine.elements_up_to(length)[1] for length in range(16))


@pytest.mark.parametrize("length", [True, -1, 2.5, "3"])
def test_elements_up_to_rejects_bad_length(dinf, length):
    # True would run one layer, and -1 return no layers
    with pytest.raises(InvalidQuery):
        dinf.elements_up_to(length)


def test_enumeration_layers_are_immutable():
    # clearing a returned layer used to empty the BFS's own frontier, and
    # the next call then read an infinite group as closed
    system = parse_group_file(corpus.source("hyperbolic_334"))
    layers, _ = system.elements_up_to(2)
    with pytest.raises(AttributeError):
        layers[-1].clear()
    with pytest.raises(TypeError):
        layers[-1][0] = system.identity
    layers, closed = system.elements_up_to(5)
    fresh = parse_group_file(corpus.source("hyperbolic_334")).elements_up_to(5)[0]
    assert not closed
    assert [len(layer) for layer in layers] == [len(layer) for layer in fresh]


# -- the left-multiplication table of a finite system ---------------------------


def _random_words(system, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.randrange(system.rank) for _ in range(rng.randint(0, 40)))
            for _ in range(count)]


def _point_descents(system, g):
    """(left, right) descents by the point route: the negative pairings of
    w(rho) and of w^{-1}(rho), with rho in the field."""
    rho = (system.field.one,) * system.rank
    q = list(rho)
    for s in g.word:
        system._apply_gen_dual(s, q)
    return system._negative_set(g.act_dual_coords(rho)), system._negative_set(q)


def _fill_left_table(system):
    """Fold s g a a for every element g and generator s until no entry is
    missing: the word is not reduced, so normalize folds it, and a fold that
    meets missing entries fills at least the first.  Returns the entries."""
    words = [g.word for g in enumerate_group(system).elements]
    while True:
        size = sum(map(len, system._left_tables()))
        for word in words:
            for s in range(system.rank):
                system.normalize((s,) + word + (0, 0))
        if sum(map(len, system._left_table)) == size:
            return size


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", corpus.FINITE_NAMES)
def test_left_table_agrees_with_the_matrix_recursion_and_models(name, warm):
    system = parse_group_file(corpus.source(name))
    model = MODELS[name]()
    order = enumerate_group(corpus.load(name)).order
    if warm:
        assert _fill_left_table(system) == system.rank * order
    words = _random_words(system, 40, seed=7)
    for u, v in zip(words, words[1:]):
        g, h = system.normalize(u), system.normalize(v)
        assert g.word == system._word_from_inverse_matrix(_inverse_matrix(system, u))
        assert model.word(g.word) == model.word(u)
        assert model.word((g * h).word) == model.word(u + v)
        assert model.word(g.inverse().word) == model.word(u[::-1])
    assert system._left_table and all(len(row) <= order for row in system._left_table)
    for s, row in enumerate(system._left_table):
        for g, h in row.items():
            assert model.word(h.word) == model.word((s,) + g.word)


def test_a_fold_walks_at_most_its_word_for_new_entries(monkeypatch):
    # the first fold in a cold h3 meets a missing entry at every letter; it
    # stores entries while the letters their walks push stay within the
    # word's 30, then walks the rest of the word once
    system = parse_group_file(corpus.source("h3"))
    word = tuple(i % 3 for i in range(30))
    pushed = []
    walk = system._walk_word

    def counted(letters):
        pushed.append(len(letters))
        return walk(letters)

    monkeypatch.setattr(system, "_walk_word", counted)
    assert system.normalize(word).word == corpus.load("h3")._walk_word(word).word
    entries = sum(map(len, system._left_table))
    assert 0 < entries == len(pushed) - 1
    assert sum(pushed[:-1]) <= len(word) and pushed[-1] <= len(word)


@pytest.mark.parametrize("text", [corpus.source(name) for name in corpus.INFINITE_NAMES]
                         + ["rank 3\nlabels a b c\n1 3 inf\n3 1 3\ninf 3 1\n"],
                         ids=list(corpus.INFINITE_NAMES) + ["triangle_33inf"])
def test_infinite_systems_build_no_left_table(text):
    system = parse_group_file(text)
    words = _random_words(system, 10, seed=3)
    for u, v in zip(words, words[1:]):
        g, h = system.normalize(u), system.normalize(v)
        g * h, g.inverse(), g.left_descents, g.right_descents
    assert system._left_table == ()


def test_finite_system_past_the_cap_walks_with_the_same_answers(monkeypatch):
    # with the cap at 10, a1xa1 (2 x 4 entries) keeps a table and h3
    # (3 x 120) keeps none and walks every word, without enumerating
    monkeypatch.setattr(coxgroup, "MAX_LEFT_TABLE", 10)
    small = parse_group_file(corpus.source("a1xa1"))
    assert _fill_left_table(small) == 8
    system = parse_group_file(corpus.source("h3"))
    tabled = corpus.load("h3")
    words = _random_words(system, 30, seed=11)
    for u, v in zip(words, words[1:]):
        g, h = system.normalize(u), system.normalize(v)
        assert g.word == tabled.normalize(u).word
        assert (g * h).word == tabled.normalize(u + v).word
        assert g.inverse().word == tabled.normalize(u[::-1]).word
    assert system._left_table == () and tabled._left_table
    assert len(system._bfs_layers) == 1


@pytest.mark.parametrize("rank, edges, order", [
    (4, [(0, 1, 3), (1, 2, 3), (2, 3, 3)], 120),               # A4
    (4, [(0, 1, 4), (1, 2, 3), (2, 3, 3)], 384),               # B4
    (4, [(0, 1, 3), (1, 2, 4), (2, 3, 3)], 1152),              # F4
    (4, [(0, 1, 3), (1, 2, 3), (1, 3, 3)], 192),               # D4
    (5, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (2, 4, 3)], 1920),   # D5
    (2, [(0, 1, 7)], 14),                                      # I2(7)
    (4, [(0, 1, 3), (2, 3, 5)], 60),                           # A2 x I2(5)
    (6, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (2, 5, 3)], 51840),  # E6
], ids=["A4", "B4", "F4", "D4", "D5", "I2(7)", "A2xI2(5)", "E6"])
def test_finite_order_by_type(rank, edges, order):
    # against the enumeration where it is small, and against the known order
    # of E6, whose branch node has one leaf next to it where D6's has two
    matrix = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for i, j, m in edges:
        matrix[i][j] = matrix[j][i] = m
    W = build_system(matrix)
    assert math.prod(coxgroup._finite_order(W.matrix, c.gens)
                     for c in cone_components(W)) == order
    if order <= 2000:
        assert enumerate_group(W).order == order


@pytest.mark.parametrize("name", corpus.FINITE_NAMES)
def test_table_descents_match_the_point_route(name):
    # {s : l(s*g) < l(g)} read from the table is the left descent set of g
    # and the right descent set of g^{-1}, both by the point route
    system = parse_group_file(corpus.source(name))
    _fill_left_table(system)
    table = system._left_table
    for g in table[0]:
        below = system.label_set(s for s in range(system.rank) if table[s][g].length < g.length)
        assert below == _point_descents(system, g)[0]
        assert below == _point_descents(system, g.inverse())[1]


def test_label_set_shares_equal_subsets(b3):
    I = b3.label_set([2, 0])
    assert b3.label_set(["a", "c"]) is I
    assert b3.label_set(frozenset({0, 2})) is I
    assert b3.label_set((0, 2, 0)) is I
    assert make(b3.element("b"), [0, 2]).gens is I
    assert b3.label_set(()) is b3.label_set(frozenset())
    p = make(b3.element("a b"), "ab")
    q = make(b3.element("c"), "bc")
    assert intersect(p, q).gens is b3.label_set(intersect(p, q).gens)
    closure = pc(ClosureQuery([b3.element("a"), b3.element("c")], 16)).closure
    assert closure.gens is I
    assert locate(DualPoint(b3, (0, 1, 0))).gens is I


@pytest.mark.parametrize("flag", [True, False])
def test_bool_generator_indices_rejected(a2, flag):
    with pytest.raises(UnknownGenerator):
        a2.check_letters([flag])
    with pytest.raises(UnknownGenerator):
        a2.normalize([0, flag])
    with pytest.raises(UnknownGenerator):
        a2.label_set([flag])
    with pytest.raises(UnknownGenerator):
        a2.generator(flag)
    with pytest.raises(UnknownGenerator):
        make(a2.identity, [flag])
    # the shared subset {1} holds the int, however it was first asked for
    assert [type(s) for s in a2.label_set([int(flag)])] == [int]


# -- integral systems: rho walked in ints ------------------------------------------


def _random_integral_system(seed):
    """A seeded Coxeter matrix of rank 2 to 6 with labels from {2, 3, 3, inf}."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    matrix = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = rng.choice((2, 3, 3, INF))
    return build_system(matrix)


def _reference_word(system, word):
    """The canonical word of a word by the dense route."""
    return system._word_from_inverse_matrix(_inverse_matrix(system, word))


def _reference_layers(system, length):
    """BFS layers of canonical words by dense products: w*s is one longer
    than w exactly when w(alpha_s), column s of M(w), is positive, and the
    least word reaching an element is its canonical word."""
    n = system.rank
    layers, matrices = [((),)], {(): system._identity_matrix}
    for _ in range(length):
        least = {}
        for w in layers[-1]:
            M = matrices[w]
            for s in range(n):
                if _first_sign([M[i][s] for i in range(n)]) > 0:
                    h = system._matmul(M, system._gen_matrices[s])
                    least[h] = min(least.get(h, w + (s,)), w + (s,))
        layers.append(tuple(sorted(least.values())))
        matrices = {w: h for h, w in least.items()}
    return layers


@pytest.mark.parametrize("seed", range(12))
def test_integral_systems_match_the_dense_route(seed):
    system = _random_integral_system(seed)
    assert all(type(c) is int for c in system._rho)
    rng = random.Random(seed)
    words = [tuple(rng.randrange(system.rank) for _ in range(rng.randint(0, 16)))
             for _ in range(8)]
    for u, v in zip(words, words[1:]):
        g, h = system.normalize(u), system.normalize(v)
        N = _inverse_matrix(system, u)
        assert g.word == system._word_from_inverse_matrix(N)
        assert g.left_descents == _negative_columns(system, N)
        assert g.right_descents == _negative_columns(system, system.compose_matrix(u))
        assert (g * h).word == _reference_word(system, u + v)
        assert g.inverse().word == _reference_word(system, u[::-1])
    depth = 4 if system.rank <= 4 else 3
    layers, _ = system.elements_up_to(depth)
    assert [tuple(g.word for g in layer) for layer in layers] == \
        _reference_layers(system, depth)[:len(layers)]


@pytest.mark.parametrize("name, integral", [
    *((name, True) for name in ("a1xa1", "a2", "a3", "affine_a2", "dihedral_inf")),
    *((name, False) for name in ("b2", "b3", "g2", "h3", "hyperbolic_334"))])
def test_rho_holds_ints_exactly_for_integral_systems(name, integral):
    system = parse_group_file(corpus.source(name))
    assert all((type(c) is int) if integral else isinstance(c, FieldScalar)
               for c in system._rho)
    # the ints stay inside the engine: public points and matrices are scalars
    g = system.normalize(tuple(range(system.rank)) * 2)
    ones = (1,) * system.rank
    for out in (g.act_dual_coords(ones), g.root_pairings(ones), *g.matrix):
        assert all(isinstance(c, FieldScalar) for c in out)


def test_long_word_in_the_universal_triangle_group():
    # no braid relations: a word with no letter twice in a row is the one
    # reduced word of its element, and w(rho) grows past 64-bit ints
    system = build_system([[1, INF, INF], [INF, 1, INF], [INF, INF, 1]])
    rng = random.Random(3)
    word = [0]
    while len(word) < 300:
        word.append(rng.choice([s for s in range(3) if s != word[-1]]))
    word = tuple(word)
    g = system.normalize(word)
    assert g.word == word == _reference_word(system, word)
    assert g.left_descents == _negative_columns(system, _inverse_matrix(system, word))
    assert g.right_descents == _negative_columns(system, system.compose_matrix(word))
    point = system._rho_image(word)
    assert all(type(c) is int for c in point)
    assert max(map(abs, point)) > 2 ** 63


# -- one dual step and one walk, on int and field points alike ---------------------


_INTEGRAL_KEYS = ("a2", "a3", "affine_a2", "dihedral_inf", "triangle_inf",
                  *(f"random{seed}" for seed in range(12)))


def _integral_system(key):
    """A fresh integral system: a corpus group, the (inf, inf, inf) triangle
    group, or the seeded random file of test_integral_systems_match_the_dense_route."""
    if key == "triangle_inf":
        return build_system([[1, INF, INF], [INF, 1, INF], [INF, INF, 1]])
    if key.startswith("random"):
        return _random_integral_system(int(key[len("random"):]))
    return parse_group_file(corpus.source(key))


@pytest.mark.parametrize("key", _INTEGRAL_KEYS)
def test_int_kernel_matches_the_dense_route_on_long_words(key):
    # the dense route composes M(w) and M(w^{-1}) once per word; a product's
    # matrices are products of those, and M(w) is the inverse matrix of w^{-1}
    system = _integral_system(key)
    assert all(type(c) is int for c in system._rho)
    rng = random.Random(key)
    words = [tuple(rng.randrange(system.rank) for _ in range(length))
             for length in (0, 1, 5, 31, 90, 200)]
    dense = {u: (system.compose_matrix(u), _inverse_matrix(system, u)) for u in words}
    for u, v in zip(words, words[1:] + words[:1]):
        (M, N), (Mv, Nv) = dense[u], dense[v]
        g = system._walk_word(u)
        # the left descents the walk recorded, read before any descent call
        assert g._left_descents is not None
        assert g._left_descents == _negative_columns(system, N)
        assert g.word == system._word_from_inverse_matrix(N)
        assert system.normalize(u) is g
        assert g.right_descents == _negative_columns(system, M)
        h = system.normalize(v)
        assert (g * h).word == system._word_from_inverse_matrix(system._matmul(Nv, N))
        assert g.inverse().word == system._word_from_inverse_matrix(M)


def test_int_kernel_refuses_a_walk_that_ends_away_from_rho(monkeypatch):
    # (1, 2, 1, ...) pairs positively with every simple root but is not rho:
    # its walk takes no step and ends away from rho.  (-1, ..., -1) is no
    # point of the rho-orbit either, and its walk does not end within the
    # word's length.  The one walk refuses both in ints (a2) and in the
    # field (hyperbolic_334)
    for name in ("a2", "hyperbolic_334"):
        system = parse_group_file(corpus.source(name))
        one = system._rho[0]
        for point in ([one, one + one] + [one] * (system.rank - 2), [-one] * system.rank):
            monkeypatch.setattr(system, "_rho_image", lambda letters, point=point: list(point))
            with pytest.raises(InvariantViolation):
                system._walk_word((0,))


_INTEGRAL_CORPUS = tuple(name for name in corpus.NAMES
                         if all(m in (1, 2, 3, INF) for row in corpus.load(name).matrix
                                for m in row))


@pytest.mark.parametrize("name", _INTEGRAL_CORPUS)
def test_one_walk_spells_the_same_word_in_ints_and_in_the_field(name):
    # normalize walks rho in ints; the same step and walk on the field
    # rho-image spell the same canonical word and end at the field rho
    system = corpus.load(name)
    assert len(_INTEGRAL_CORPUS) == 5 and all(type(c) is int for c in system._rho)
    rho = [system.field.one] * system.rank
    for u in _random_words(system, 30, seed=5):
        q = list(rho)
        for s in reversed(u):
            system._apply_gen_dual(s, q)
        assert all(type(c) is FieldScalar for c in q)
        assert tuple(system._walk_dual(q, range(system.rank), len(u))) == system.normalize(u).word
        assert q == rho


@pytest.mark.parametrize("name", ["affine_a2", "hyperbolic_334"])
def test_walk_dual_leaves_its_list_where_it_stopped(name):
    # w(f) for f in the open fundamental chamber walks back to f, spelling
    # w's canonical word; a walk cut at the cap k stops at the point the
    # first k letters reach
    system = corpus.load(name)
    word = system.normalize(tuple(range(system.rank)) * 3).word
    assert len(word) >= 6
    chambers = [[system.field.coerce(c) for c in (1, 2, 3)]]
    if all(type(c) is int for c in system._rho):
        chambers.append([1, 2, 3])
    for f in chambers:
        start = list(f)
        for s in reversed(word):
            system._apply_gen_dual(s, start)
        q = list(start)
        assert tuple(system._walk_dual(q, range(system.rank), len(word))) == word
        assert q == f and all(type(c) is type(f[0]) for c in q)
        point = list(start)
        for k in range(len(word)):
            q = list(start)
            assert system._walk_dual(q, range(system.rank), k) is None
            assert q == point
            system._apply_gen_dual(word[k], point)


_NON_ITERABLE_CALLS = {
    "normalize(None)": lambda W: W.normalize(None),
    "normalize(5)": lambda W: W.normalize(5),
    "label_set(5)": lambda W: W.label_set(5),
    "make(w, 3)": lambda W: make(W.generator(0), 3),
    "DualPoint(W, None)": lambda W: DualPoint(W, None),
    "Root(W, 5)": lambda W: Root(W, 5),
    "act(None)": lambda W: W.generator(0).act(None),
    "root_pairings(5)": lambda W: W.generator(0).root_pairings(5),
    "ClosureQuery(5, r)": lambda W: ClosureQuery(5, 3),
    "element(None)": lambda W: W.element(None),
}


@pytest.mark.parametrize("call", sorted(_NON_ITERABLE_CALLS))
def test_non_iterable_input_is_a_typed_error(a2, call):
    # a word, set, point or element list that cannot be iterated over, or
    # word text that is not a string, is refused with InvalidQuery
    with pytest.raises(InvalidQuery):
        _NON_ITERABLE_CALLS[call](a2)


_NOT_A_COXKIT_OBJECT_CALLS = {
    "Root('x', v)": lambda W: Root("x", (1, 0)),
    "DualPoint('x', f)": lambda W: DualPoint("x", (1, 0)),
    "fundamental_point('x', I)": lambda W: fundamental_point("x", [0]),
    "root_of('x', 0)": lambda W: root_of("x", 0),
    "reflection_of_root('x')": lambda W: reflection_of_root("x"),
    "descend_root('x', I)": lambda W: descend_root("x", [0]),
    "conjugacy_normalize(W, I, J, 'x')": lambda W: conjugacy_normalize(W, [0], [0], "x"),
    "order_of_product('x', 0, 1)": lambda W: order_of_product("x", 0, 1),
    "brute_pc(table, ['x'])": lambda W: brute_pc(enumerate_group(W), ["x"]),
}


@pytest.mark.parametrize("call", sorted(_NOT_A_COXKIT_OBJECT_CALLS))
def test_argument_that_is_not_a_coxkit_object_is_a_typed_error(a2, call):
    # a string where a system, element or root belongs: InvalidQuery, not a
    # bare AttributeError
    with pytest.raises(InvalidQuery):
        _NOT_A_COXKIT_OBJECT_CALLS[call](a2)


# 2 is a2's rank, one past its last generator index
@pytest.mark.parametrize("letter", [1.0, -1, 2, "a", None, (0, True)])
def test_letters_outside_the_generators_rejected(a2, letter):
    with pytest.raises(UnknownGenerator):
        a2.normalize((0, letter))
    with pytest.raises(UnknownGenerator):
        a2.generator(letter)
    if letter == (0, True):
        # passed as the whole word, True is its bad letter
        with pytest.raises(UnknownGenerator):
            a2.normalize(letter)


@pytest.mark.parametrize("name", corpus.NAMES)
def test_products_and_inverses_of_canonical_words_match_normalize(name):
    # __mul__ and inverse pass canonical letters on unchecked; the same
    # letters through the checked normalize give the same elements
    system = parse_group_file(corpus.source(name))
    rng = random.Random(name)
    elements = [system.normalize([rng.randrange(system.rank) for _ in range(rng.randint(0, 30))])
                for _ in range(12)]
    for g, h in zip(elements, elements[1:]):
        assert g * h is system.normalize(g.word + h.word)
        assert g.inverse() is system.normalize(reversed(g.word))
