"""Fixed-point token arithmetic."""

from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from carbonledger.tokens import CENTI_PER_TOKEN, TOKENS_PER_CAD, TokenAmount, TokenValueError, total


def test_parse_and_format():
    assert str(TokenAmount.from_tokens("493.79")) == "493.79"
    assert TokenAmount.from_tokens("493.79").centi == 49379
    assert str(TokenAmount.from_tokens(0)) == "0.00"
    assert str(TokenAmount.from_tokens("-45.24")) == "-45.24"
    assert str(TokenAmount(5)) == "0.05"
    assert str(TokenAmount(-5)) == "-0.05"


def test_parse_rejects_garbage():
    with pytest.raises(TokenValueError):
        TokenAmount.from_tokens("not-a-number")


def test_half_even_rounding_at_boundary():
    # exactly half a centi-token rounds to the even neighbour
    assert TokenAmount.from_tokens("0.005").centi == 0
    assert TokenAmount.from_tokens("0.015").centi == 2
    assert TokenAmount.from_tokens("0.025").centi == 2


def test_arithmetic_is_exact():
    a = TokenAmount.from_tokens("0.10")
    total_ = TokenAmount.zero()
    for _ in range(1000):
        total_ = total_ + a
    assert total_ == TokenAmount.from_tokens("100.00")
    assert a - a == TokenAmount.zero()
    assert -a == TokenAmount(-10)
    assert 3 * a == TokenAmount(30)


def test_scaling_by_float_is_rejected():
    with pytest.raises(TypeError):
        TokenAmount(100) * 0.5


def test_cad_conversion_identities():
    # 1 CAD buys 10^4 tokens; 100 tokens are one cent
    assert TokenAmount.from_cad(1) == TokenAmount.from_tokens(TOKENS_PER_CAD)
    assert TokenAmount.from_tokens(100).to_cad() == Decimal("0.01")
    assert TokenAmount.from_tokens("493.79").to_cad() == Decimal("0.049379")


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
    assert TokenAmount.from_tokens(str(token)) == token


@given(st.decimals(min_value="-99999.99", max_value="99999.99", places=2))
def test_decimal_round_trip(dec):
    token = TokenAmount.from_tokens(dec)
    assert token.to_decimal() == dec
    assert token.centi == int(dec * CENTI_PER_TOKEN)


def round_trip(text: str):
    """The amount `from_tokens` reads from `text` when `str` writes it back
    as `text`, else None."""
    try:
        amount = TokenAmount.from_tokens(text)
    except ValueError:
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
