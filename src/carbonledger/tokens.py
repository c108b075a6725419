"""Fixed-point carbon-token amounts.

Token quantities are held as integer centi-tokens (two decimal places) so
that allocation sums, balances and conservation checks are exact.  One
token is worth 10^-4 CAD, i.e. 100 tokens equal one cent.  Rounding to
centi-tokens happens only where emissions are priced
(`emissions.tokens_for_emissions`, half-even); everything downstream is
integer arithmetic, and text is read back only as `str` writes it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

CENTI_PER_TOKEN = 100

# what `str` writes for an amount of at most 26 whole digits, and "-0.00",
# which `str` never writes
_TOKEN_TEXT = re.compile(r"-?(?:0|[1-9][0-9]{0,25})\.[0-9]{2}")


class TokenValueError(ValueError):
    """A value could not be interpreted as a token quantity."""


@dataclass(frozen=True, order=True)
class TokenAmount:
    """Signed token quantity with exact two-decimal arithmetic."""

    centi: int

    @classmethod
    def parse(cls, text: str) -> "TokenAmount":
        """The amount that `str` renders as exactly `text`.

        For text written by a program (ledger exports, config files): any
        other spelling of an amount, such as "1e3", "5.005", "+1.00" or
        "1.0", raises `TokenValueError` instead of being rounded.
        """
        return cls(int(check_amount_text(text).replace(".", "")))

    @classmethod
    def zero(cls) -> "TokenAmount":
        return cls(0)

    def __add__(self, other: "TokenAmount") -> "TokenAmount":
        return TokenAmount(self.centi + other.centi)

    def __sub__(self, other: "TokenAmount") -> "TokenAmount":
        return TokenAmount(self.centi - other.centi)

    def __str__(self) -> str:
        sign = "-" if self.centi < 0 else ""
        whole, frac = divmod(abs(self.centi), CENTI_PER_TOKEN)
        return f"{sign}{whole}.{frac:02d}"


def check_amount_text(text: str) -> str:
    """`text`, if it is exactly how `str` renders some amount; raises
    `TokenValueError` otherwise (see `TokenAmount.parse`)."""
    if not _TOKEN_TEXT.fullmatch(text) or text == "-0.00":
        raise TokenValueError(f"not a two-decimal token amount: {text!r}")
    return text


def total(amounts) -> TokenAmount:
    """Exact sum of an iterable of TokenAmount."""
    return TokenAmount(sum(a.centi for a in amounts))
