import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxkit
from coxkit import corpus
from coxkit.coxgroup import build_system, parse_group_file
from coxkit.errors import GroupNotFinite, InvalidQuery, MixedSystems
from coxkit.oracle import FiniteGroupTable, brute_pc, enumerate_group

ENGINE_MODULES = ("scalar", "coxgroup", "roots", "titscone", "parabolic",
                  "paraclose")


def test_orders():
    for name, order in (("a2", 6), ("a3", 24), ("h3", 120)):
        assert enumerate_group(corpus.load(name)).order == order


def test_infinite_group_raises(dinf):
    with pytest.raises(GroupNotFinite):
        enumerate_group(dinf, cap=300)


@pytest.mark.parametrize("cap", [-1, 0, "x", 2.5, True])
def test_cap_that_is_not_a_positive_int_rejected(cap):
    # checked before the cached table is read
    h3 = corpus.load("h3")
    enumerate_group(h3)
    with pytest.raises(InvalidQuery):
        enumerate_group(h3, cap=cap)


def test_cached_table_respects_cap():
    h3 = corpus.load("h3")
    assert enumerate_group(h3).order == 120
    with pytest.raises(GroupNotFinite):
        enumerate_group(h3, cap=10)
    with pytest.raises(GroupNotFinite):
        FiniteGroupTable(h3, cap=10)  # the engine's BFS is already closed


def test_multiplication_table_matches_engine(b2):
    table = enumerate_group(b2)
    for i, g in enumerate(table.elements):
        for j, h in enumerate(table.elements):
            assert table.elements[table.mult(i, j)] == g * h


def test_inverse_table(a3):
    table = enumerate_group(a3)
    for i, g in enumerate(table.elements):
        assert table.elements[table.inverse[i]] == g.inverse()


def test_oracle_products_are_independent_of_the_engine_table(monkeypatch):
    # a fresh system with one wrong entry planted in its left-multiplication
    # table: the engine's fold of a non-canonical word reads it, the
    # oracle's products do not
    system = parse_group_file(corpus.source("b3"))
    g = system.normalize((0, 1))
    right = system.normalize((2, 0, 1))
    wrong = system.normalize((0,))
    monkeypatch.setitem(system._left_table[2], g, wrong)
    assert system.normalize((2, 0, 1, 1, 1)) is wrong
    table = FiniteGroupTable(system)
    i, s = table.index[g], table.index[system.generator(2)]
    assert table.elements[table.left_action[2][i]] is right
    assert table.elements[table.mult(s, i)] is right
    assert right is not wrong
    assert table.elements[table.inverse[table.index[right]]] is right.inverse()


def test_element_index_rejects_foreign_elements(a2, b2):
    table = enumerate_group(a2)
    with pytest.raises(MixedSystems):
        table.element_index(b2.identity)


def test_special_subgroup(a3):
    table = enumerate_group(a3)
    sub = table.special_subgroup(frozenset({0, 1}))
    assert len(sub) == 6
    words = {str(table.elements[i]) for i in sub}
    assert words == {"e", "a", "b", "a b", "b a", "a b a"}


def test_parabolic_counts():
    single = build_system(((1,),), labels=("s",))
    assert len(enumerate_group(single).parabolics()) == 2
    assert len(enumerate_group(corpus.load("a2")).parabolics()) == 5
    assert len(enumerate_group(corpus.load("a1xa1")).parabolics()) == 4


def test_parabolic_list_is_deterministic(a3):
    table = enumerate_group(a3)
    first = [(p.describe(), m) for p, m in table.parabolics()]
    second = [(p.describe(), m) for p, m in table.parabolics()]
    assert first == second


def test_literal_intersection_of_special_subgroups(a3):
    table = enumerate_group(a3)
    left = table.special_subgroup(frozenset({0, 1}))
    right = table.special_subgroup(frozenset({1, 2}))
    got = left & right
    assert {str(table.elements[i]) for i in got} == {"e", "b"}
    assert got == table.special_subgroup(frozenset({1}))


def test_brute_pc_is_listed_parabolic(a2):
    table = enumerate_group(a2)
    p, members = brute_pc(table, [a2.element("s t s")])
    assert members == frozenset({table.element_index(a2.identity),
                                 table.element_index(a2.element("s t s"))})
    assert table.subgroup_elements(p) == members


def test_subgroup_elements_of_conjugate(a2):
    table = enumerate_group(a2)
    from coxkit.parabolic import make
    P = make(a2.generator(0), frozenset({1}))
    members = table.subgroup_elements(P)
    assert {str(table.elements[i]) for i in members} == {"e", "s t s"}


def _imported_modules(path):
    """Every module name an import statement in the file refers to, with
    relative imports resolved against the coxkit package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = "coxkit" if node.level else ""
            module = ".".join(filter(None, (prefix, node.module)))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_engine_never_imports_oracle_or_verify():
    # the engine must stay independent of the routes that check it
    package = Path(coxkit.__file__).parent
    for module in ENGINE_MODULES:
        for name in _imported_modules(package / f"{module}.py"):
            parts = name.split(".")
            assert "oracle" not in parts and "verify" not in parts, \
                f"{module}.py imports {name}"


def test_no_assert_statements_in_the_package():
    # an assert vanishes under python -O, so no guarantee may rest on one
    package = Path(coxkit.__file__).parent
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.relative_to(package)} has assert statements at lines {lines}"


# The dense generator matrices are the reference route, and the bilinear form
# is read only where the generator actions and the cone classification are
# built: every other engine read goes through the neighbour table.
_RESTRICTED_READS = [
    ({"_gen_matrices", "_matmul", "compose_matrix"},
     {"CoxeterSystem._check_representation", "CoxeterSystem.compose_matrix",
      "CoxeterSystem._word_from_inverse_matrix", "order_of_product"}),
    ({"form"},
     {"CoxeterSystem.__init__", "CoxeterSystem._build_generator_matrix",
      "CoxeterSystem._check_representation", "CoxeterSystem.form_value",
      "ConeComponent"}),
]


def _reads_outside(tree, names, allowed):
    """(line, name) of each read of one of the names, as an attribute or a
    bare name, with no enclosing definition in allowed (dotted paths)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if (name in names and isinstance(getattr(node, "ctx", None), ast.Load)
                and not any(".".join(scope[:k]) in allowed
                            for k in range(1, len(scope) + 1))):
            found.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


@pytest.mark.parametrize("names, allowed", _RESTRICTED_READS, ids=["dense", "form"])
def test_dense_route_and_form_read_only_where_allowed(names, allowed):
    package = Path(coxkit.__file__).parent
    for module in ENGINE_MODULES:
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        assert not _reads_outside(tree, names, allowed), module


# Exactness: the engine computes in ints, Fractions and field scalars only.
# math may name the unbounded label and integer helpers, and true division
# appears once, where the isolating interval of theta is bisected in
# Fractions: a / on int coordinates would silently make them floats.
_MATH_ALLOWED = {"inf", "lcm", "prod", "factorial"}
_DIVISION_ALLOWED = {"scalar": {"FieldContext._refine_iso"}}


def _inexact_nodes(tree, division_allowed):
    """(line, what) of each float literal, float(...) call, math name outside
    _MATH_ALLOWED and true division outside the dotted scopes allowed."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float()"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in _MATH_ALLOWED):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, f"math.{alias.name}") for alias in node.names
                         if alias.name not in _MATH_ALLOWED)
        elif (isinstance(getattr(node, "op", None), ast.Div)
              and ".".join(scope) not in division_allowed):
            found.append((node.lineno, "/"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_engine_arithmetic_stays_exact():
    package = Path(coxkit.__file__).parent
    for module in ENGINE_MODULES:
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        found = _inexact_nodes(tree, _DIVISION_ALLOWED.get(module, set()))
        assert not found, f"{module}.py: {found}"


def test_exactness_guard_sees_each_kind():
    source = ("import math\nfrom math import sqrt\n"
              "def f(x):\n    return float(x) + 0.5 + math.pi + x / 2\n"
              "def g(x):\n    x /= 2\n    return math.inf, math.lcm(2, 3)\n")
    found = _inexact_nodes(ast.parse(source), {"g"})
    assert sorted(what for _, what in found) == [
        "/", "float literal", "float()", "math.pi", "math.sqrt"]


def test_import_leaves_oracle_and_verify_unloaded():
    # a fresh interpreter: the checking routes load only when first named
    src = str(Path(coxkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, coxkit\n"
            "lazy = {'coxkit.oracle', 'coxkit.verify'}\n"
            "if lazy & set(sys.modules):\n"
            "    sys.exit('loaded at import')\n"
            "for name in coxkit.__all__:\n"
            "    getattr(coxkit, name)\n"
            "from coxkit import brute_pc, enumerate_group\n"
            "if not lazy <= set(sys.modules) or coxkit.verify.SUITES is not coxkit.SUITES:\n"
            "    sys.exit('not loaded on use')\n")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
