"""Exact computational algebra for quotients of free associative algebras.

Graded dimension tables with the degree-wise generator bound, growth
certificates, symmetric-window generator constructions with nil-exponent
certificates, and a reproducible CLI. All arithmetic is exact (GF(2),
GF(p), or rationals); large-scale verdicts go through certified
high-precision comparisons, never bare floats.

The public names are served lazily (PEP 562): `import gsalg` loads no
submodule, and the first use of a name imports the module that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "AmbientMismatch", "BlueprintMismatch", "ConstantTerm", "DegreeBelowTwo",
        "DegreeExceedsTable", "DegreeNotCovered", "DegreeTooHigh", "DimensionBoundViolated",
        "DivisionByZero", "GsalgError", "InvalidParams", "MixedFields",
        "NonHomogeneousGenerator", "ParseError", "TooLarge", "VariableOutOfRange",
    ),
    "field": ("GF2", "QQ", "FieldDescriptor", "parse_field"),
    "freealg": ("Polynomial", "order_key", "parse_poly", "poly_str", "word_index", "words_of_degree"),
    "symfun": (
        "MonomialWindow", "generator_degree", "monomial_window", "orbit_iter", "orbit_size",
        "power_expansion", "validate_weak_tuple", "weak_tuple_count", "weak_tuples",
        "window_generator", "window_generators", "window_size",
    ),
    "graded": (
        "DimensionRow", "GradedIdealTable", "build_table", "check_dimension_bounds",
        "dimension_report", "dimension_rows", "write_dimension_csv",
    ),
    "gscore": (
        "BoundCertificate", "BlueprintBlock", "GSBlueprint", "GSParams", "GrowthReport",
        "NilCertificate", "blueprint_from_dict", "blueprint_table", "blueprint_to_dict",
        "build_blueprint", "certificate_from_epsilon", "certified_log2_gap", "check_blueprint",
        "check_bound_conditions", "load_blueprint", "minimal_power", "nil_certificate",
        "parse_ratio", "save_blueprint", "verify_growth",
    ),
    "cli": ("main",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
