"""Built-in corpus of example groups, shipped as group files.

Finite: A2, B2, G2, A1xA1, A3, B3, H3.  Infinite: the infinite dihedral
group, the affine triangle group with all labels 3, and the hyperbolic
(3, 3, 4) triangle group.
"""

from __future__ import annotations

from importlib import resources

from ..coxgroup import CoxeterSystem, parse_group_file

FINITE_NAMES = ("a2", "b2", "g2", "a1xa1", "a3", "b3", "h3")
INFINITE_NAMES = ("dihedral_inf", "affine_a2", "hyperbolic_334")
NAMES = FINITE_NAMES + INFINITE_NAMES

_cache: dict[str, CoxeterSystem] = {}


def source(name: str) -> str:
    """The text of a built-in group file."""
    if name not in NAMES:
        raise KeyError(f"no built-in group named {name!r}")
    return (resources.files(__package__) / f"{name}.cox").read_text()


def load(name: str) -> CoxeterSystem:
    """A built-in system by name; instances are cached per process so all
    callers share one system (and its interned elements)."""
    system = _cache.get(name)
    if system is None:
        system = parse_group_file(source(name))
        _cache[name] = system
    return system


def all_systems() -> list[tuple[str, CoxeterSystem]]:
    return [(name, load(name)) for name in NAMES]
