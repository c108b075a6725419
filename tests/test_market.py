"""Cap-and-trade market: allocation, settlement, operator charges."""

import pytest
from hypothesis import given, settings, strategies as st

from carbonledger.emissions import (
    BusChargingPolicy,
    EmissionFactorTable,
    Mode,
    PricePolicy,
    TripRecord,
    trip_cost,
)
from carbonledger.ledger import (
    TxKind,
    build_block,
    create_genesis,
    derive_address,
    make_transaction,
)
from carbonledger.market import (
    MARKET_ADDRESS,
    CapPolicy,
    EmptyPopulation,
    Market,
    MarketPoolExhausted,
    allocate,
    compute_cap,
    equal_split_grants,
)
from carbonledger.tokens import TokenAmount, total

PRICE = PricePolicy(20.0)
BUS = BusChargingPolicy(seats_per_bus=50.55)
VALIDATORS = [derive_address(f"validator-{i}") for i in range(4)]
USERS = [derive_address(f"user-{i}") for i in range(3)]

TABLE = EmissionFactorTable.from_csv(
    "class,v_lo_kmh,v_hi_kmh,g_per_km\ncar,0,200,100\nbus,0,200,1187.925\n"
)


def tok(s):
    return TokenAmount.parse(s)


def commit(ledger, txs):
    return ledger.apply_block(build_block(txs, VALIDATORS[0], ledger.head), VALIDATORS)


def bootstrap(market, grants_cap="150.00", initial_pool=None, users=USERS):
    policy = CapPolicy(cap=tok(grants_cap))
    txs = market.genesis_transactions(list(users), policy,
                                      initial_pool=initial_pool)
    return create_genesis(VALIDATORS, txs)


def committed(ledger, kind):
    """The sum of the chain's committed transactions of `kind`."""
    return total(tx.amount for block in ledger.chain for tx in block.txs if tx.kind is kind)


# --- cap computation and allocation ---


def test_cap_sums_trip_costs():
    trips = [
        TripRecord("t1", "u1", Mode.CAR, 0, 1800, 5_000, 1),   # 500 g -> 100.00
        TripRecord("t2", "u2", Mode.CAR, 0, 1800, 2_500, 1),   # 250 g -> 50.00
    ]
    policy = compute_cap({t.trip_id: trip_cost(t, TABLE, BUS, PRICE) for t in trips})
    assert policy.cap == tok("150.00")
    assert equal_split_grants(policy.cap, 2) == [tok("75.00"), tok("75.00")]


def test_zero_emission_day_has_zero_cap():
    trips = [TripRecord("t1", "u1", Mode.WALK, 0, 600, 800, 1)]
    costs = {t.trip_id: trip_cost(t, TABLE, BUS, PRICE) for t in trips}
    assert compute_cap(costs).cap == TokenAmount.zero()


def test_largest_remainder_split():
    assert equal_split_grants(tok("100.00"), 3) == [tok("33.34"), tok("33.33"), tok("33.33")]


def test_single_user_gets_whole_cap():
    assert equal_split_grants(tok("57.31"), 1) == [tok("57.31")]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**4))
def test_allocation_exactness(cap_centi, n_users):
    grants = equal_split_grants(TokenAmount(cap_centi), n_users)
    assert len(grants) == n_users
    assert sum(g.centi for g in grants) == cap_centi
    assert max(g.centi for g in grants) - min(g.centi for g in grants) <= 1


def test_allocate_builds_one_tx_per_user():
    market = Market()
    txs = allocate(list(USERS), CapPolicy(cap=tok("100.00")),
                   MARKET_ADDRESS)
    assert len(txs) == 3
    assert all(tx.kind is TxKind.ALLOCATION and tx.sender == MARKET_ADDRESS
               for tx in txs)
    assert total(tx.amount for tx in txs) == tok("100.00")


def test_allocate_rejects_empty_population():
    with pytest.raises(EmptyPopulation):
        allocate([], CapPolicy(cap=tok("1.00")), MARKET_ADDRESS)


# --- settlement ---


def test_settlement_with_sufficient_balance():
    market = Market()
    ledger = bootstrap(market, "1481.37")  # 493.79 each
    txs = market.settle_trip(USERS[0], tok("206.00"), ledger, now=3600.0,
                             description="trip:t1")
    assert len(txs) == 1
    assert txs[0].kind is TxKind.TRIP_PAYMENT
    ledger = commit(ledger, txs)
    assert ledger.balance(USERS[0]) == tok("287.79")
    assert committed(ledger, TxKind.TRIP_PAYMENT) == tok("206.00")


def test_settlement_with_deficit_buys_shortfall():
    market = Market()
    # artificial cap well below the trip cost, so the pool is set explicitly
    ledger = bootstrap(market, "30.00", initial_pool=tok("1000.00"))  # 10.00 each
    txs = market.settle_trip(USERS[0], tok("55.24"), ledger, now=3600.0,
                             description="trip:t1")
    assert [t.kind for t in txs] == [TxKind.PURCHASE, TxKind.TRIP_PAYMENT]
    assert txs[0].amount == tok("45.24")
    assert txs[1].amount == tok("55.24")
    assert txs[0].timestamp < txs[1].timestamp  # purchase lands first in-block
    ledger = commit(ledger, txs)
    assert ledger.balance(USERS[0]) == TokenAmount.zero()
    # net position: grant 10.00 - cost 55.24
    assert tok("10.00") - tok("55.24") == tok("-45.24")
    assert committed(ledger, TxKind.PURCHASE) == tok("45.24")


def test_zero_cost_settles_without_transactions():
    market = Market()
    ledger = bootstrap(market)
    assert market.settle_trip(USERS[0], TokenAmount.zero(), ledger, 0.0) == []


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.integers(min_value=0, max_value=100_000))
def test_settlement_identity(balance_centi, cost_centi):
    # balance_after == max(0, before - cost); purchase == max(0, cost - before)
    market = Market()
    user = derive_address("solo")
    policy = CapPolicy(cap=TokenAmount(balance_centi))
    txs = market.genesis_transactions([user], policy,
                                      initial_pool=TokenAmount(10**9))
    ledger = create_genesis(VALIDATORS, txs)
    settlement = market.settle_trip(user, TokenAmount(cost_centi), ledger,
                                    now=1.0, description="trip:x")
    if cost_centi == 0:
        assert settlement == []
        return
    ledger = commit(ledger, settlement)
    assert ledger.balance(user).centi == max(0, balance_centi - cost_centi)
    purchases = [t for t in settlement if t.kind is TxKind.PURCHASE]
    bought = purchases[0].amount.centi if purchases else 0
    assert bought == max(0, cost_centi - balance_centi)


def test_pool_exhaustion_detected():
    market = Market()
    ledger = bootstrap(market, "30.00", initial_pool=tok("5.00"))
    with pytest.raises(MarketPoolExhausted):
        market.settle_trip(USERS[0], tok("100.00"), ledger, 0.0,
                           description="trip:t1")


# --- sales ---


def sale(user, amount, now):
    """A surplus sale back to the pool at par; no day builds one yet."""
    return make_transaction(now, user, MARKET_ADDRESS, amount, TxKind.SALE, "surplus sale")


def test_sale_replenishes_pool_for_later_purchase():
    # pool-balance oracle across a three-step script with a tiny pool
    market = Market()
    ledger = bootstrap(market, "60.00", initial_pool=tok("1.00"))  # 20.00 each
    # user-1 sells 15.00 into the pool
    ledger = commit(ledger, [sale(USERS[1], tok("15.00"), 1.0)])
    assert market.pool(ledger) == tok("16.00")
    # user-0 then needs a 12.00 purchase the original pool could not cover
    txs = market.settle_trip(USERS[0], tok("32.00"), ledger, 2.0,
                             description="trip:t2")
    assert txs[0].kind is TxKind.PURCHASE and txs[0].amount == tok("12.00")
    ledger = commit(ledger, txs)
    assert market.pool(ledger) == tok("4.00")  # 16 - 12


# --- operator settlement ---


def bus_trip():
    # 10 km bus trip in the 1187.925 g/km band: 235 g/seat -> 47.00 tokens
    return TripRecord("b1", "u1", Mode.BUS, 0, 1800, 10_000, 1)


PER_SEAT = trip_cost(bus_trip(), TABLE, BUS, PRICE)[1]


def test_full_bus_costs_operator_nothing():
    market = Market()
    ledger = bootstrap(market, "100.00")
    assert market.operator_settlement(bus_trip(), 50.55, PER_SEAT, BUS, ledger, 0.0) is None


def test_operator_pays_for_empty_seats():
    market = Market()
    ledger = bootstrap(market, "100.00", initial_pool=tok("2000.00"))
    tx = market.operator_settlement(bus_trip(), 30.0, PER_SEAT, BUS, ledger, 0.0)
    # 20.55 empty seats x 47.00 tokens
    assert tx is not None and tx.amount == tok("965.85")
    assert tx.kind is TxKind.OPERATOR_SETTLEMENT
    assert "operator" in tx.description and "trip:b1" in tx.description


# --- cap accounting ---


def test_cap_accounting_identity_after_a_scripted_day():
    # sum(payments) + sum(leftovers) + sum(sold) == cap + sum(purchases)
    market = Market()
    ledger = bootstrap(market, "90.00")  # 30.00 each
    script = [
        market.settle_trip(USERS[0], tok("12.00"), ledger, 1.0, "trip:a"),
    ]
    ledger = commit(ledger, script[0])
    txs = market.settle_trip(USERS[1], tok("44.00"), ledger, 2.0, "trip:b")
    ledger = commit(ledger, txs)
    ledger = commit(ledger, [sale(USERS[2], tok("30.00"), 3.0)])

    cap = tok("90.00")
    payments = committed(ledger, TxKind.TRIP_PAYMENT)
    leftovers = total(ledger.balance(u) for u in USERS)
    sold, purchased = committed(ledger, TxKind.SALE), committed(ledger, TxKind.PURCHASE)
    assert payments + leftovers + sold == cap + purchased
