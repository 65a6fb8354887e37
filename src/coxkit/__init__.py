"""coxkit: exact computation in finite-rank Coxeter groups.

Canonical element arithmetic in the reflection representation over
Q(2*cos(pi/L)), root systems, point location in the Tits cone, parabolic
subgroup algebra (membership, containment, intersection) and parabolic
closure, all in exact arithmetic.  The one brute-force route, for finite
groups only, is `oracle.py` (enumeration, literal subgroup sets, brute_pc);
the engine modules never import it, so they are never checked against
themselves.
"""

from . import errors
from .coxgroup import (CoxeterSystem, GroupElement, build_system,
                       load_group_file, order_of_product, parse_group_file,
                       serialize_group)
from .oracle import FiniteGroupTable, brute_pc, enumerate_group
from .parabolic import (ConjugacyWitness, Parabolic, conjugacy_normalize,
                        intersect, make)
from .paraclose import ClosureQuery, ClosureResult, ClosureStatus, pc
from .roots import (Reflection, Root, descend_root, enumerate_roots,
                    reflection_of_root, root_depths, root_of, simple_root)
from .scalar import (INFINITY, FieldContext, FieldScalar, build_field,
                     cos_pi_over)
from .titscone import (CellLocation, DualPoint, fundamental_point, locate,
                       stabilizer)
from .verify import SUITES, SuiteResult, run_suites

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
