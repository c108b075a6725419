"""Cap-and-trade mechanics.

The day's cap is the token sum of all person-trip costs.  Every user gets
an equal grant at genesis (largest-remainder reconciliation keeps the sum
exact).  Trip payments retire tokens into a non-recirculating retirement
account; a user short of tokens automatically buys the shortfall from the
market pool at the fixed price before paying.  Sales flow back into the
pool at par.  The market keeps no running totals: what was bought, sold
and retired is the sum of the chain's committed transactions of that kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .emissions import BusChargingPolicy, TripRecord, PER_SEAT_MODES
from .ledger import Ledger, TokenTransaction, TxKind, derive_address, make_transaction
from .tokens import TokenAmount, total

# a trip payment is booked this long after its bundled purchase so the
# purchase always sorts first inside a block
SETTLEMENT_EPSILON_S = 0.001


class MarketError(Exception):
    pass


class EmptyPopulation(MarketError):
    pass


class InsufficientTokens(MarketError):
    pass


class MarketPoolExhausted(MarketError):
    pass


@dataclass(frozen=True)
class CapPolicy:
    cap: TokenAmount

    def __post_init__(self):
        if self.cap.centi < 0:
            raise ValueError("cap must be non-negative")


def compute_cap(trip_costs: Mapping[str, tuple[float, TokenAmount]]) -> CapPolicy:
    """Cap = token sum of every person-trip inside the system boundary,
    given each trip's (grams, tokens) cost."""
    return CapPolicy(cap=total(cost for _, cost in trip_costs.values()))


def operator_remainder(occupied_seats: float, per_seat: TokenAmount,
                       bus_policy: BusChargingPolicy) -> tuple[float, TokenAmount]:
    """Empty seats on one bus trip and their tokens at the per-seat cost."""
    empty = max(0.0, bus_policy.seats_per_bus - occupied_seats)
    return empty, TokenAmount(round(per_seat.centi * empty))


def equal_split_grants(cap: TokenAmount, n_users: int) -> list[TokenAmount]:
    """Largest-remainder equal split; grants sum to the cap exactly."""
    if n_users < 1:
        raise EmptyPopulation("no users to allocate to")
    base, rem = divmod(cap.centi, n_users)
    return [TokenAmount(base + (1 if i < rem else 0)) for i in range(n_users)]


def allocate(user_addresses: Sequence[str], policy: CapPolicy,
             market_address: str, timestamp: float = 0.0) -> list[TokenTransaction]:
    """One allocation transaction per user from the market address."""
    if not user_addresses:
        raise EmptyPopulation("no users to allocate to")
    grants = equal_split_grants(policy.cap, len(user_addresses))
    txs = []
    for addr, grant in zip(user_addresses, grants):
        if grant.centi == 0:
            continue
        txs.append(make_transaction(
            timestamp, market_address, addr, grant, TxKind.ALLOCATION,
            description="daily grant",
        ))
    return txs


MARKET_ADDRESS = derive_address("market")  # the token pool
RETIREMENT_ADDRESS = derive_address("retirement")  # retired trip payments
ISSUER_ADDRESS = derive_address("issuer")  # genesis issuance of the pool
OPERATOR_ID = "transit-operator"  # named in operator settlement descriptions


class Market:
    """Fixed-price counterparty: sells to cover deficits, buys surpluses.

    It holds no state: the pool is the market wallet's balance on the
    ledger it is given, and it only builds transactions, which change
    anything once a block commits them.
    """

    # -- genesis --

    def genesis_transactions(self, user_addresses: Sequence[str], policy: CapPolicy,
                             initial_pool: Optional[TokenAmount] = None
                             ) -> list[TokenTransaction]:
        """User grants plus the market pool reserve, all at time zero.

        The pool reserve defaults to the cap itself, which bounds any day's
        total deficit purchases, and is issued to the market wallet so the
        whole money supply is on-chain.
        """
        txs = allocate(user_addresses, policy, MARKET_ADDRESS)
        pool = policy.cap if initial_pool is None else initial_pool
        if pool.centi > 0:
            txs.append(make_transaction(
                0.0, ISSUER_ADDRESS, MARKET_ADDRESS, pool, TxKind.ALLOCATION,
                description="market pool reserve",
            ))
        return txs

    # -- pool view --

    def pool(self, ledger: Ledger) -> TokenAmount:
        return ledger.balance(MARKET_ADDRESS)

    # -- operations --

    def settle_trip(self, user_address: str, cost: TokenAmount, ledger: Ledger,
                    now: float, description: str = "") -> list[TokenTransaction]:
        """Payment for a finished trip, with an automatic purchase of any
        shortfall; zero-cost trips settle with no transaction at all."""
        if cost.centi < 0:
            raise ValueError("cost must be non-negative")
        if cost.centi == 0:
            return []
        txs = []
        balance = ledger.balance(user_address)
        if balance < cost:
            shortfall = cost - balance
            if self.pool(ledger) < shortfall:
                raise MarketPoolExhausted(
                    f"pool {self.pool(ledger)} cannot cover {shortfall}"
                )
            txs.append(make_transaction(
                now, MARKET_ADDRESS, user_address, shortfall, TxKind.PURCHASE,
                description=description or "deficit purchase",
            ))
        txs.append(make_transaction(
            now + SETTLEMENT_EPSILON_S, user_address, RETIREMENT_ADDRESS,
            cost, TxKind.TRIP_PAYMENT, description=description or "trip:unknown",
        ))
        return txs

    def sell_surplus(self, user_address: str, amount: TokenAmount, ledger: Ledger,
                     now: float) -> TokenTransaction:
        """Sell tokens back to the pool at par."""
        if amount.centi <= 0:
            raise ValueError("sale amount must be positive")
        if ledger.balance(user_address) < amount:
            raise InsufficientTokens(
                f"balance {ledger.balance(user_address)} < {amount}"
            )
        return make_transaction(now, user_address, MARKET_ADDRESS, amount,
                                TxKind.SALE, description="surplus sale")

    def operator_settlement(self, trip: TripRecord, occupied_seats: float,
                            per_seat: TokenAmount, bus_policy: BusChargingPolicy,
                            ledger: Ledger, now: float) -> Optional[TokenTransaction]:
        """Charge the operator for a bus trip's empty seats; `per_seat` is the
        trip's token cost per seat.

        The tokens are drawn from the market pool straight into retirement;
        the operator pays for them outside the chain.
        """
        if trip.mode not in PER_SEAT_MODES:
            return None
        remainder, amount = operator_remainder(occupied_seats, per_seat, bus_policy)
        if amount.centi == 0:
            return None
        if self.pool(ledger) < amount:
            raise MarketPoolExhausted(f"pool cannot cover operator remainder {amount}")
        return make_transaction(
            now, MARKET_ADDRESS, RETIREMENT_ADDRESS, amount,
            TxKind.OPERATOR_SETTLEMENT,
            description=f"trip:{trip.trip_id};operator:{OPERATOR_ID};"
                        f"seats:{remainder:.2f}",
        )
