"""Exact combinatorics of small projective planes and the density bounds they yield.

The package builds PG_m(q) as an indexed incidence structure, searches its
blocking sets, arcs and passant covers exactly, materializes the two
partition-based constructions of PG-free hypergraphs, and optimizes the
associated edge-density lower-bound polynomials with exact rational
coefficients.

Importing the package loads no submodule.  Each public name below, and each
submodule, is imported on first access (PEP 562), so a command pays only
for the layers it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "gf": ("FieldTable", "make_field"),
    "geometry": ("Geometry", "build_geometry", "line_through", "parse_coords",
                 "format_coords"),
    "structures": ("ArcRecord", "is_blocking_set", "max_blocking_set_size", "is_arc",
                   "is_complete_arc", "secant_profile", "enumerate_complete_arcs",
                   "classify_up_to_collineation", "max_concurrency"),
    "covering": ("HittingSetResult", "MqReport", "PassantAnalysis", "min_hitting_set",
                 "m_of_arc", "compute_Mq", "passant_analysis", "verify_appendix"),
    "construction": ("PartitionSpec", "Hypergraph", "make_partition", "build_hypergraph",
                     "count_edges_exact", "displayed_lower_bound",
                     "contains_subgeometry"),
    "bounds": ("BoundPolynomial", "OptResult", "theorem1_lower", "theorem1_upper",
               "pg2_upper", "chromatic_lower", "corollary1_t", "theorem2_polynomial",
               "theorem3_polynomial", "optimize_bound", "reproduce_tables"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("gf", "geometry", "structures", "covering", "construction", "bounds",
               "refdata", "verify", "cli")

__all__ = list(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
