"""Fixed-point token arithmetic."""

from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN

import pytest
from hypothesis import given, strategies as st

from carbonledger.emissions import PricePolicy, tokens_for_emissions
from carbonledger.tokens import CENTI_PER_TOKEN, TokenAmount, TokenValueError, total


def test_parse_and_format():
    assert str(TokenAmount.parse("493.79")) == "493.79"
    assert TokenAmount.parse("493.79").centi == 49379
    assert str(TokenAmount.parse("0.00")) == "0.00"
    assert str(TokenAmount.parse("-45.24")) == "-45.24"
    assert str(TokenAmount(5)) == "0.05"
    assert str(TokenAmount(-5)) == "-0.05"


def test_parse_rejects_garbage():
    with pytest.raises(TokenValueError):
        TokenAmount.parse("not-a-number")


def test_half_even_rounding_at_boundary():
    # pricing is where amounts are rounded: exactly half a centi-token
    # (0.025 g at 20 CAD/t) rounds to the even neighbour
    price = PricePolicy(20.0)
    assert tokens_for_emissions(0.025, price).centi == 0
    assert tokens_for_emissions(0.075, price).centi == 2
    assert tokens_for_emissions(0.125, price).centi == 2


def test_arithmetic_is_exact():
    a = TokenAmount.parse("0.10")
    total_ = TokenAmount.zero()
    for _ in range(1000):
        total_ = total_ + a
    assert total_ == TokenAmount.parse("100.00")
    assert a - a == TokenAmount.zero()


def test_scaling_by_float_is_rejected():
    # amounts do not scale at all; scale `.centi` and round at a boundary
    with pytest.raises(TypeError):
        TokenAmount(100) * 0.5
    with pytest.raises(TypeError):
        3 * TokenAmount(100)


def test_cad_conversion_identities():
    # 1 CAD buys 10^4 tokens (a tonne at 1 CAD/t); 100 tokens are one cent
    # (10 kg at 1 CAD/t)
    price = PricePolicy(1.0)
    assert tokens_for_emissions(1_000_000.0, price) == TokenAmount.parse("10000.00")
    assert tokens_for_emissions(10_000.0, price) == TokenAmount.parse("100.00")


def test_ordering():
    assert TokenAmount(100) < TokenAmount(101)
    assert max(TokenAmount(3), TokenAmount(7)) == TokenAmount(7)


@given(st.lists(st.integers(min_value=-10**9, max_value=10**9), max_size=200))
def test_total_matches_integer_sum(centis):
    amounts = [TokenAmount(c) for c in centis]
    assert total(amounts).centi == sum(centis)


@given(st.integers(min_value=-10**12, max_value=10**12))
def test_string_round_trip(centi):
    token = TokenAmount(centi)
    assert TokenAmount.parse(str(token)) == token


def round_trip(text: str):
    """The amount that `text`, read as a decimal number and rounded half-even
    to two places, stands for, when `str` writes that amount back as `text`;
    else None."""
    try:
        dec = Decimal(text).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN)
        amount = TokenAmount(int(dec * CENTI_PER_TOKEN))
    except (InvalidOperation, ValueError):  # not a number, or NaN
        return None
    return amount if str(amount) == text else None


def check_parse(text: str) -> None:
    expected = round_trip(text)
    if expected is None:
        with pytest.raises(TokenValueError):
            TokenAmount.parse(text)
    else:
        assert TokenAmount.parse(text) == expected


@pytest.mark.parametrize("text, written", [
    ("0.00", True), ("-0.01", True), ("9" * 26 + ".99", True), ("-1" + "0" * 25 + ".00", True),
    ("-0.00", False), ("00.00", False), ("1.0", False), ("1" + "0" * 26 + ".00", False),
    ("1e3", False), ("5.005", False), ("NaN", False), ("+1.00", False), (" 1.00", False),
    ("1.00\n", False), ("1_0.00", False), ("\u0661.\u0660\u0660", False),
])
def test_parse_edge_cases(text, written):
    assert (round_trip(text) is not None) is written
    check_parse(text)


@given(st.one_of(
    st.integers(min_value=-10**29, max_value=10**29).map(lambda c: str(TokenAmount(c))),
    st.from_regex(r"[-+ ]?[0-9_]{1,28}(\.[0-9]{0,3})?\s?", fullmatch=True),
    st.text(alphabet="0123456789.-+eE_ \n\u0660\u0661NaIinfty", max_size=12),
))
def test_parse_accepts_exactly_what_round_trips(text):
    check_parse(text)
