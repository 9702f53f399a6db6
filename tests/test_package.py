"""The package's public surface."""

import pytest

import gsalg
from gsalg.combinat import validate_weak_tuple, weak_tuple_count, weak_tuples
from gsalg.errors import InvalidParams
from gsalg.field import GF2
from gsalg.freealg import Polynomial, parse_poly
from gsalg.symfun import monomial_window, power_expansion, window_size


def test_all_exports_resolve():
    missing = [name for name in gsalg.__all__ if not hasattr(gsalg, name)]
    assert missing == []
    assert len(set(gsalg.__all__)) == len(gsalg.__all__)


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
