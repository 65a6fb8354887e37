"""Brute-force reference computations for finite groups.

Everything here works with explicit element lists and index arithmetic:
subgroups are frozensets of element indices, products are computed by
folding words through generator permutations, read once from the dual points
g(rho) and never from the engine's normal forms, and parabolic
subgroups are enumerated literally as {w u w^{-1} : u in W_I} over all
elements w and subsets I.  No root systems and no Tits cone: this module is
the only brute-force route in coxkit, the independent witness the geometric
algorithms are checked against.  The engine modules never import it.
"""

from __future__ import annotations

from itertools import combinations

from .coxgroup import CoxeterSystem, GroupElement
from .errors import (GroupNotFinite, MixedSystems, NotAParabolic, require_count,
                     require_instance, require_iterable)
from .parabolic import Parabolic, make


def _check_cap(count: int, cap: int) -> None:
    if count > cap:
        raise GroupNotFinite(f"more than {cap} elements enumerated")


class FiniteGroupTable:
    """Element list and multiplication structure of a finite Coxeter group."""

    def __init__(self, system: CoxeterSystem, cap: int = 200000):
        self.system = system
        # all elements in (length, word) order, from the engine's one BFS;
        # the BFS may already be closed by an earlier call, so the cap is
        # checked on every layer set, the closed one included
        horizon, closed = 0, False
        while not closed:
            layers, closed = system.elements_up_to(horizon)
            _check_cap(sum(len(layer) for layer in layers), cap)
            horizon += 1
        self.elements: list[GroupElement] = [g for layer in layers for g in layer]
        self.index: dict[GroupElement, int] = {
            g: i for i, g in enumerate(self.elements)}
        # products from points, not from the engine's normal forms: element
        # i is named by g_i(rho), rho having trivial stabilizer, so
        # left_action[s][i], the index of generator_s * element_i, is found
        # by one dual step s(g_i(rho)); the inverse of g_i is the element
        # whose point is g_i^{-1}(rho), one dual step from that of the prefix
        # of g_i's word (canonical words being closed under prefixes).  rho
        # is built here in the field, whatever ring the engine walks it in
        rho = (system.field.one,) * system.rank
        points = [g.act_dual_coords(rho) for g in self.elements]
        by_point = {p: i for i, p in enumerate(points)}
        self.left_action = [
            [by_point[system._dual_image(s, p)] for p in points]
            for s in range(system.rank)]
        inverse_points = {(): rho}
        for g in self.elements[1:]:
            inverse_points[g.word] = system._dual_image(
                g.word[-1], inverse_points[g.word[:-1]])
        self.inverse = [by_point[inverse_points[g.word]] for g in self.elements]
        self._subgroups: dict[frozenset[int], frozenset[int]] = {}
        self._parabolics = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def mult(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j], by folding the word of i
        through the left generator actions."""
        out = j
        for s in reversed(self.elements[i].word):
            out = self.left_action[s][out]
        return out

    def element_index(self, g: GroupElement) -> int:
        if g.system is not self.system:
            raise MixedSystems("element belongs to a different system")
        return self.index[g]

    def special_subgroup(self, gens) -> frozenset[int]:
        """Indices of W_I, by closure of the generators under multiplication."""
        I = self.system.label_set(gens)
        cached = self._subgroups.get(I)
        if cached is not None:
            return cached
        members = {self.index[self.system.identity]}
        frontier = list(members)
        while frontier:
            nxt = []
            for i in frontier:
                for s in I:
                    j = self.left_action[s][i]
                    if j not in members:
                        members.add(j)
                        nxt.append(j)
            frontier = nxt
        out = frozenset(members)
        self._subgroups[I] = out
        return out

    def conjugate_set(self, w_index: int, members: frozenset[int]) -> frozenset[int]:
        wi = self.inverse[w_index]
        return frozenset(self.mult(self.mult(w_index, u), wi) for u in members)

    def subgroup_elements(self, parabolic: Parabolic) -> frozenset[int]:
        """Element indices of a parabolic given by (rep, gens)."""
        if parabolic.system is not self.system:
            raise MixedSystems("subgroup belongs to a different system")
        base = self.special_subgroup(parabolic.gens)
        return self.conjugate_set(self.index[parabolic.rep], base)

    def parabolics(self) -> list[tuple[Parabolic, frozenset[int]]]:
        """All distinct parabolic subgroups as element sets, each labelled by
        the first (subset, element) pair producing it.  Subsets are scanned
        by (size, index order) and elements in enumeration order, so the list
        is deterministic."""
        if self._parabolics is not None:
            return self._parabolics
        n = self.system.rank
        subsets = [frozenset(c) for size in range(n + 1)
                   for c in combinations(range(n), size)]
        found: dict[frozenset[int], Parabolic] = {}
        order = []
        for I in subsets:
            base = self.special_subgroup(I)
            for wi, w in enumerate(self.elements):
                members = self.conjugate_set(wi, base)
                if members not in found:
                    found[members] = make(w, I)
                    order.append(members)
        self._parabolics = [(found[m], m) for m in order]
        return self._parabolics


def enumerate_group(system: CoxeterSystem, cap: int = 200000) -> FiniteGroupTable:
    """Enumerate a finite group; raises GroupNotFinite past the cap, and
    InvalidQuery for a cap that is not a positive int."""
    require_count(cap, "cap", positive=True)
    cached = system.cache["oracle_table"]
    if cached is not None:
        _check_cap(cached.order, cap)
        return cached
    table = system.cache["oracle_table"] = FiniteGroupTable(system, cap)
    return table


def brute_pc(table: FiniteGroupTable,
             elements) -> tuple[Parabolic, frozenset[int]]:
    """Smallest parabolic containing the given elements: the literal
    intersection of all parabolic element sets containing them.  Also checks
    the minimal-rank characterization: exactly one containing parabolic has
    minimal rank, and it equals the intersection.  Raises NotAParabolic when
    either check fails (they never do, which is the point)."""
    indices = {table.element_index(require_instance(g, GroupElement, "element"))
               for g in require_iterable(elements, "elements")}
    containing = [(p, m) for p, m in table.parabolics() if indices <= m]
    result = frozenset.intersection(*(m for _, m in containing))
    best_rank = min(p.rank for p, _ in containing)
    minimal = [(p, m) for p, m in containing if p.rank == best_rank]
    if len(minimal) != 1:
        raise NotAParabolic("minimal-rank containing parabolic is not unique")
    if minimal[0][1] != result:
        raise NotAParabolic("intersection of the containing parabolics is not "
                            "the minimal-rank one")
    return minimal[0]
