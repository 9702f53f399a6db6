"""The package's public surface."""

import argparse

import pytest

import gsalg
from gsalg import cli
from gsalg.symfun import validate_weak_tuple, weak_tuple_count, weak_tuples
from gsalg.errors import InvalidParams
from gsalg.field import GF2
from gsalg.freealg import Polynomial, parse_poly
from gsalg.symfun import monomial_window, power_expansion, window_size


def test_all_exports_resolve():
    missing = [name for name in gsalg.__all__ if not hasattr(gsalg, name)]
    assert missing == []
    assert len(set(gsalg.__all__)) == len(gsalg.__all__)


def test_public_names_are_pinned():
    # the package's exports, exactly: a new one has to be added here on purpose
    assert sorted(gsalg.__all__) == [
        "AmbientMismatch", "BlueprintBlock", "BlueprintMismatch", "BoundCertificate",
        "ConstantTerm", "DegreeBelowTwo", "DegreeExceedsTable", "DegreeNotCovered",
        "DegreeTooHigh", "DimensionBoundViolated", "DimensionRow", "DivisionByZero",
        "FieldDescriptor", "GF2", "GSBlueprint", "GSParams", "GradedIdealTable",
        "GrowthReport", "GsalgError", "InvalidParams", "MixedFields", "MonomialWindow",
        "NilCertificate", "NonHomogeneousGenerator", "ParseError", "Polynomial", "QQ",
        "TooLarge", "VariableOutOfRange",
        "blueprint_from_dict", "blueprint_table", "blueprint_to_dict", "build_blueprint",
        "build_table", "certificate_from_epsilon", "certified_log2_gap", "check_blueprint",
        "check_bound_conditions", "check_dimension_bounds", "dimension_report",
        "dimension_rows", "generator_degree", "load_blueprint", "main", "minimal_power",
        "monomial_window", "nil_certificate", "orbit_iter", "orbit_size", "order_key",
        "parse_field", "parse_poly", "parse_ratio", "poly_str", "power_expansion",
        "save_blueprint", "validate_weak_tuple", "verify_growth", "weak_tuple_count",
        "weak_tuples", "window_generator", "window_generators", "window_size",
        "word_index", "words_of_degree", "write_dimension_csv",
    ]


_X1 = parse_poly("x1", 2, GF2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: weak_tuple_count(True, 2),
        lambda: weak_tuples(2, True),
        lambda: window_size(2, True),
        lambda: monomial_window(2, True),
        lambda: Polynomial(True, GF2),
        lambda: Polynomial(2, GF2, {(True,): 1}),
        lambda: _X1 ** True,
        lambda: validate_weak_tuple((True,), 2),
        lambda: power_expansion(_X1, True, monomial_window(2, 1)),
    ],
    ids=[
        "weak_tuple_count",
        "weak_tuples",
        "window_size",
        "monomial_window",
        "Polynomial-d",
        "Polynomial-letter",
        "pow",
        "validate_weak_tuple",
        "power_expansion",
    ],
)
def test_a_bool_is_not_an_integer_argument(call):
    with pytest.raises(InvalidParams):
        call()


def test_cli_option_set_is_pinned():
    # every subcommand's options, exactly: a new option has to be added here on purpose
    expected = {
        "dims": ["--csv", "--d", "--field", "--gens", "--json", "--maxdeg"],
        "construct": ["--blocks", "--d", "--eps", "--field", "--mode", "--out", "--toy-c", "--toy-n"],
        "nilcheck": ["--blueprint", "--field", "--g", "--verify"],
        "bound": ["--b", "--b-json", "--c", "--d", "--eps", "--r", "--r-from", "--range", "--u", "--v"],
        "jcount": ["--list", "--n", "--q"],
        "symfun": ["--c", "--d", "--field", "--j", "--q"],
    }
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: sorted(opt for action in p._actions for opt in action.option_strings
                     if opt not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }
    assert got == expected
    assert sum(map(len, got.values())) == 36
