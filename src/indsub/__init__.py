"""Exact counting of induced k-vertex subgraphs with a property, through
finite linear combinations of homomorphism counts, plus the hardness
diagnostics that the coefficient structure supports.

The package works over exact integers and rationals throughout.  The two
counting routes -- the homomorphism-basis evaluation and direct subset
enumeration -- are kept independent so that each can verify the other.
"""

from .catalog import GraphCatalog, build_catalog
from .counting import count_basis, count_brute
from .errors import (
    BudgetExceededError,
    FormatError,
    IndsubError,
    InternalConsistencyError,
    PredicateError,
    UnknownPropertyError,
)
from .graphs import HostGraph, SmallGraph
from .hardness import HardnessReport, diagnose
from .hombasis import HomVector, hom_vector
from .homcount import count_hom, exact_treewidth, tree_decomposition
from .hereditary import (
    bounded_critical_check,
    count_independent_sets_via_reduction,
    explode,
    singleton_critical_edge,
    twin_partition,
)
from .properties import (
    BUILTIN_PROPERTIES,
    PropertySpec,
    forbidden_induced_property,
    forbidden_subgraph_property,
    get_property,
    truth_table_property,
)
from .spectrum import Spectrum, f_vector, h_vector, polya_poised, spectrum_report

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_PROPERTIES",
    "BudgetExceededError",
    "FormatError",
    "GraphCatalog",
    "HardnessReport",
    "HomVector",
    "HostGraph",
    "IndsubError",
    "InternalConsistencyError",
    "PredicateError",
    "PropertySpec",
    "SmallGraph",
    "Spectrum",
    "UnknownPropertyError",
    "bounded_critical_check",
    "build_catalog",
    "count_basis",
    "count_brute",
    "count_hom",
    "count_independent_sets_via_reduction",
    "diagnose",
    "exact_treewidth",
    "explode",
    "f_vector",
    "forbidden_induced_property",
    "forbidden_subgraph_property",
    "get_property",
    "h_vector",
    "hom_vector",
    "polya_poised",
    "singleton_critical_edge",
    "spectrum_report",
    "tree_decomposition",
    "truth_table_property",
    "twin_partition",
    "__version__",
]
