"""coxkit: exact computation in finite-rank Coxeter groups.

Canonical element arithmetic in the reflection representation over
Q(2*cos(pi/L)), root systems, point location in the Tits cone, parabolic
subgroup algebra (membership, containment, intersection) and parabolic
closure, all in exact arithmetic.  The one brute-force route, for finite
groups only, is `oracle.py` (enumeration, literal subgroup sets, brute_pc);
the engine modules never import it, so they are never checked against
themselves.  `oracle` and `verify` are loaded only when one of their names
is first used.
"""

from importlib import import_module

from . import corpus, errors
from .coxgroup import (CoxeterSystem, GroupElement, build_system,
                       load_group_file, order_of_product, parse_group_file,
                       serialize_group)
from .parabolic import (ConjugacyWitness, Parabolic, conjugacy_normalize,
                        intersect, make)
from .paraclose import ClosureQuery, ClosureResult, ClosureStatus, pc
from .roots import (Reflection, Root, descend_root, enumerate_roots,
                    reflection_of_root, root_depths, root_of, simple_root)
from .scalar import (INFINITY, FieldContext, FieldScalar, build_field,
                     cos_pi_over)
from .titscone import (CellLocation, DualPoint, fundamental_point, locate,
                       stabilizer)

__version__ = "0.1.0"

__all__ = [
    "CoxeterSystem", "GroupElement", "build_system", "load_group_file",
    "parse_group_file", "serialize_group", "order_of_product",
    "FieldContext", "FieldScalar", "build_field", "cos_pi_over", "INFINITY",
    "Root", "Reflection", "simple_root", "root_of", "reflection_of_root",
    "enumerate_roots", "root_depths", "descend_root",
    "DualPoint", "CellLocation", "fundamental_point", "locate", "stabilizer",
    "Parabolic", "ConjugacyWitness", "make", "intersect", "conjugacy_normalize",
    "ClosureQuery", "ClosureResult", "ClosureStatus", "pc",
    "FiniteGroupTable", "enumerate_group", "brute_pc",
    "SUITES", "SuiteResult", "run_suites",
    "errors", "__version__",
]

# the checking routes, imported on first use: an engine-only caller never
# pays for them
_LAZY = {"FiniteGroupTable": "oracle", "enumerate_group": "oracle",
         "brute_pc": "oracle", "SUITES": "verify", "SuiteResult": "verify",
         "run_suites": "verify"}


def __getattr__(name):
    module = _LAZY.get(name, name)
    if module not in ("oracle", "verify"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value
