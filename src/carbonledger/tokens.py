"""Fixed-point carbon-token amounts.

Token quantities are held as integer centi-tokens (two decimal places) so
that allocation sums, balances and conservation checks are exact.  One
token is worth 10^-4 CAD, i.e. 100 tokens equal one cent.  Rounding to
centi-tokens happens only at conversion boundaries and uses banker's
rounding; everything downstream is integer arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN

CENTI_PER_TOKEN = 100
TOKENS_PER_CAD = 10_000

_TOKEN_QUANT = Decimal("0.01")

# what `str` writes for an amount `from_tokens` can read (at most 26 whole
# digits), and "-0.00", which `str` never writes
_TOKEN_TEXT = re.compile(r"-?(?:0|[1-9][0-9]{0,25})\.[0-9]{2}")


class TokenValueError(ValueError):
    """A value could not be interpreted as a token quantity."""


@dataclass(frozen=True, order=True)
class TokenAmount:
    """Signed token quantity with exact two-decimal arithmetic."""

    centi: int

    @classmethod
    def from_tokens(cls, value) -> "TokenAmount":
        """Build from a quantity in whole tokens (str, int, Decimal or float).

        Values with more than two decimals are rounded half-even.
        """
        try:
            dec = Decimal(str(value)).quantize(_TOKEN_QUANT, rounding=ROUND_HALF_EVEN)
        except InvalidOperation as exc:
            raise TokenValueError(f"not a token quantity: {value!r}") from exc
        return cls(int(dec * CENTI_PER_TOKEN))

    @classmethod
    def parse(cls, text: str) -> "TokenAmount":
        """The amount that `str` renders as exactly `text`.

        For text written by a program (ledger exports, config files): any
        other spelling of an amount, such as "1e3", "5.005", "+1.00" or
        "1.0", raises `TokenValueError` instead of being rounded.
        """
        return cls(int(check_amount_text(text).replace(".", "")))

    @classmethod
    def from_cad(cls, cad) -> "TokenAmount":
        """Convert a CAD amount at the fixed 10^4 tokens/CAD rate."""
        dec = (Decimal(str(cad)) * TOKENS_PER_CAD).quantize(
            _TOKEN_QUANT, rounding=ROUND_HALF_EVEN
        )
        return cls(int(dec * CENTI_PER_TOKEN))

    @classmethod
    def zero(cls) -> "TokenAmount":
        return cls(0)

    def to_decimal(self) -> Decimal:
        """Exact token value as a two-decimal Decimal."""
        return Decimal(self.centi).scaleb(-2)

    def to_cad(self) -> Decimal:
        """Exact CAD value (1 token = 10^-4 CAD)."""
        return Decimal(self.centi) / (CENTI_PER_TOKEN * TOKENS_PER_CAD)

    def __add__(self, other: "TokenAmount") -> "TokenAmount":
        return TokenAmount(self.centi + other.centi)

    def __sub__(self, other: "TokenAmount") -> "TokenAmount":
        return TokenAmount(self.centi - other.centi)

    def __neg__(self) -> "TokenAmount":
        return TokenAmount(-self.centi)

    def __mul__(self, factor: int) -> "TokenAmount":
        if not isinstance(factor, int):
            raise TypeError("token amounts scale by integers only; "
                            "convert at a boundary instead")
        return TokenAmount(self.centi * factor)

    __rmul__ = __mul__

    def __str__(self) -> str:
        sign = "-" if self.centi < 0 else ""
        whole, frac = divmod(abs(self.centi), CENTI_PER_TOKEN)
        return f"{sign}{whole}.{frac:02d}"

    def __repr__(self) -> str:
        return f"TokenAmount({self!s})"


def check_amount_text(text: str) -> str:
    """`text`, if it is exactly how `str` renders some amount; raises
    `TokenValueError` otherwise (see `TokenAmount.parse`)."""
    if not _TOKEN_TEXT.fullmatch(text) or text == "-0.00":
        raise TokenValueError(f"not a two-decimal token amount: {text!r}")
    return text


def total(amounts) -> TokenAmount:
    """Exact sum of an iterable of TokenAmount."""
    return TokenAmount(sum(a.centi for a in amounts))
