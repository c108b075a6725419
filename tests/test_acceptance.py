"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with output visible:  pytest tests/test_acceptance.py -v -s
"""

import csv as csv_mod
import io
import itertools
import json
import random
import time
from decimal import Decimal, ROUND_HALF_EVEN
from pathlib import Path

import pytest

from carbonledger.consensus import (
    Behavior,
    ConsensusEngine,
    NetworkModel,
)
from carbonledger.ledger import (
    TxKind,
    block_attestation,
    build_block,
    create_genesis,
    derive_address,
    make_transaction,
    verify_chain,
)
from carbonledger.market import MARKET_ADDRESS, RETIREMENT_ADDRESS, CapPolicy, allocate
from carbonledger.emissions import PricePolicy, tokens_for_emissions
from carbonledger.population import load_profile
from carbonledger.simulator import SimulationConfig, collect_metrics, run
from carbonledger.tokens import TokenAmount

from test_ledger import mutate_one_field


def _pass(n, name):
    print(f"ACCEPTANCE {n:2d} {name}: PASS", flush=True)


@pytest.fixture(scope="module")
def paper_scale_day():
    cfg = SimulationConfig(seed=2011, synthetic_users=3186)
    t0 = time.monotonic()
    result = run(cfg)
    return result, time.monotonic() - t0


def test_criterion_01_cap_arithmetic():
    t0 = time.monotonic()
    n_users = 3_187
    grant = TokenAmount.from_tokens("493.79")
    cap = TokenAmount(grant.centi * n_users)
    assert str(cap) == "1573708.73"

    users = [f"{i:040x}" for i in range(n_users)]
    txs = allocate(users, CapPolicy(cap=cap), MARKET_ADDRESS)
    assert len(txs) == n_users
    assert all(tx.amount == grant for tx in txs)
    total = TokenAmount(sum(tx.amount.centi for tx in txs))
    assert total == cap  # exact to the centi-token
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _pass(1, "cap arithmetic 3,187 x 493.79 == 1,573,708.73")


def test_criterion_02_conversion_anchor():
    price = PricePolicy(20.0)
    tonne = tokens_for_emissions(1_000_000.0, price)
    assert tonne == TokenAmount.from_tokens("200000.00")
    # 100 tokens equal one cent
    assert TokenAmount.from_tokens("100.00").to_cad() == Decimal("0.01")
    _pass(2, "conversion anchors exact")


def test_criterion_03_consensus_safety():
    t0 = time.monotonic()
    users = [derive_address(f"user-{i}") for i in range(3)]
    mint = derive_address("mint")
    sink = derive_address("sink")
    validators = [derive_address(f"validator-{i}") for i in range(4)]
    allocs = [make_transaction(0.0, mint, u, TokenAmount(10_000),
                               TxKind.ALLOCATION) for u in users]
    base = create_genesis(validators, allocs)
    assert base.quorum == 3  # minimum 2/3 of 4 participants

    runs = 0
    for behavior in Behavior:
        for position in range(4):
            net = NetworkModel(byzantine={validators[position]: behavior})
            for seed in range(84):  # 3 behaviors x 4 positions x 84 = 1,008 runs
                engine = ConsensusEngine(net, random.Random(seed))
                ledger = base
                heights_committed = set()
                for depth in range(2):
                    pool = [make_transaction(
                        100.0 * (depth + 1) + seed, users[depth],
                        sink, TokenAmount(10 + depth), TxKind.SALE,
                        f"probe {behavior.value} {position} {seed} {depth}")]
                    result, ledger, _ = engine.run_until_commit(
                        pool, ledger, 100.0 * (depth + 1) + seed)
                    if result is not None:
                        # SafetyViolation inside run_round would have raised
                        assert result.decision.votes_counted >= 3
                        assert len(result.fork_hashes) == 1
                        h = result.block.height
                        assert h not in heights_committed
                        heights_committed.add(h)
                runs += 1
    assert runs >= 1_000, f"only {runs} seeded runs"

    # exhaustive small-depth interleaving check: one equivocator, divergent
    # honest candidate sets, per-recipient first-votes, lossy deliveries
    quorum = 3
    h1, h2 = "11" * 32, "22" * 32
    for honest_votes in itertools.product([h1, h2], repeat=3):
        for equiv_first in itertools.product([h1, h2], repeat=4):
            for missing in itertools.product([None, 0, 1, 2], repeat=4):
                committed = set()
                for recipient in range(4):
                    counted = {}
                    for voter in range(3):
                        if missing[recipient] == voter and voter != recipient:
                            continue
                        counted[voter] = honest_votes[voter]
                    counted[3] = equiv_first[recipient]
                    tally = {}
                    for h in counted.values():
                        tally[h] = tally.get(h, 0) + 1
                    committed |= {h for h, c in tally.items() if c >= quorum}
                assert len(committed) <= 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"took {elapsed:.1f}s"
    _pass(3, f"consensus safety: {runs} seeded runs + exhaustive check, no forks")


def test_criterion_04_throughput_and_latency(paper_scale_day):
    result, elapsed = paper_scale_day
    assert elapsed < 600, f"took {elapsed:.1f}s"
    assert len(result.persons) == 3_186
    assert result.submitted > 0
    assert result.committed == result.submitted  # 100% of valid submissions
    assert result.throughput == 1.0

    # simulated latency against the hand-computed expectation of the delay
    # model: vote deadline (hi) plus the (q-1)-th order statistic of n-1
    # iid uniform(lo, hi) link delays
    lo, hi = result.config.delays_ms
    n, q = 4, 3
    expected_ms = hi + lo + (hi - lo) * (q - 1) / n
    metrics = collect_metrics(result)
    rel_err = abs(metrics.latency_mean_ms - expected_ms) / expected_ms
    assert rel_err < 0.05, f"mean {metrics.latency_mean_ms:.3f} vs {expected_ms}"
    _pass(4, f"paper-scale day: throughput 1.00, latency within {rel_err:.1%}")


@pytest.mark.slow
def test_criterion_05_tamper_evidence():
    users = [derive_address(f"user-{i}") for i in range(4)]
    mint = derive_address("mint")
    sink = derive_address("sink")
    validators = [derive_address(f"validator-{i}") for i in range(4)]
    allocs = [make_transaction(0.0, mint, u, TokenAmount(10**9),
                               TxKind.ALLOCATION) for u in users]
    ledger = create_genesis(validators, allocs)
    for i in range(200):
        sender = users[i % 4]
        txs = [make_transaction(float(i + 1), sender, sink,
                                TokenAmount(100 + i), TxKind.SALE, f"hop {i}"),
               make_transaction(float(i + 1) + 0.5, sender, sink,
                                TokenAmount(7), TxKind.SALE, f"hop {i}b")]
        block = build_block(txs, validators[i % 4], ledger.head)
        signed = block._replace(signatures=tuple(sorted(
            (v, block_attestation(v, block.block_hash))
            for v in validators)))
        ledger = ledger.apply_block(signed)
    assert len(ledger.chain) == 201
    assert verify_chain(ledger).ok

    rng = random.Random(20_11)
    detected = 0
    for _ in range(10_000):
        mutated = mutate_one_field(ledger, rng)
        if not verify_chain(mutated).ok:
            detected += 1
    assert detected == 10_000, f"missed {10_000 - detected} mutations"
    _pass(5, "tamper evidence: 10,000/10,000 single-field mutations detected")


def test_criterion_06_token_conservation(paper_scale_day):
    result, _ = paper_scale_day
    ledger = result.ledger
    # continuous assertion: apply_block checks conservation on every commit
    # and would have raised; re-derive it independently block by block here
    balances = {}
    minted = 0
    for block in ledger.chain:
        for tx in block.txs:
            if tx.kind is TxKind.ALLOCATION:
                balances[tx.receiver] = balances.get(tx.receiver, 0) + tx.amount.centi
                minted += tx.amount.centi
            else:
                balances[tx.sender] = balances[tx.sender] - tx.amount.centi
                balances[tx.receiver] = balances.get(tx.receiver, 0) + tx.amount.centi
                assert balances[tx.sender] >= 0
        assert sum(balances.values()) == minted  # after every committed block

    user_wallets = sum(ledger.balance(a).centi for a in result.user_addresses.values())
    pool = ledger.balance(MARKET_ADDRESS).centi
    retired = ledger.balance(RETIREMENT_ADDRESS).centi
    assert user_wallets + retired + pool == minted == ledger.minted_centi
    _pass(6, "token conservation: wallets + retired + pool == minted, every block")


# --- independent oracle used by criterion 7 ---


def _oracle_factor_table(text):
    reader = csv_mod.DictReader(io.StringIO(
        "\n".join(ln for ln in text.splitlines()
                  if ln.strip() and not ln.startswith("#"))
    ))
    table = {}
    for row in reader:
        table.setdefault(row["class"], []).append(
            (float(row["v_lo_kmh"]), float(row["v_hi_kmh"]), float(row["g_per_km"]))
        )
    return table


def _oracle_trip_cost_centi(trip, table, seats=50.55, price=20.0):
    # the charging formula (including float evaluation order: distance to km
    # first, then occupancy division) is part of the contract; the oracle
    # shares it and brute-forces everything downstream independently
    if trip.mode.value in ("walk", "bicycle") or trip.distance_m == 0:
        return 0
    speed = (trip.distance_m / 1000.0) / ((trip.end_time - trip.start_time) / 3600.0)
    factor = None
    for lo, hi, f in table[trip.mode.value]:
        if lo <= speed < hi:
            factor = f
            break
    assert factor is not None
    grams = factor * (trip.distance_m / 1000.0)
    if trip.mode.value in ("bus", "school_bus"):
        grams = grams / seats
    else:
        grams = grams / trip.passengers
    return int((Decimal(str(grams)) * Decimal(str(price))).quantize(
        Decimal(1), rounding=ROUND_HALF_EVEN))


def test_criterion_07_oracle_equivalence():
    from importlib import resources
    from carbonledger.analytics import all_reports, ratio_bucket

    factor_text = resources.files("carbonledger.data").joinpath(
        "default_factors.csv").read_text()
    oracle_table = _oracle_factor_table(factor_text)

    for instance in range(100):
        users = 5 + instance % 36  # 5..40 users, at most 200 trips
        result = run(SimulationConfig(seed=1000 + instance, synthetic_users=users))
        assert len(result.trips) <= 200

        # per-trip costs straight from the raw trip list
        oracle_costs = {t.trip_id: _oracle_trip_cost_centi(t, oracle_table)
                        for t in result.trips}
        for trip_id, centi in oracle_costs.items():
            assert result.trip_costs[trip_id][1].centi == centi

        # brute-force every leftover report value
        leftovers, trip_reports = all_reports(result)
        per_user = {p.user_id: {"cost": 0, "trips": 0} for p in result.persons}
        for t in result.trips:
            per_user[t.user_id]["cost"] += oracle_costs[t.trip_id]
            per_user[t.user_id]["trips"] += 1

        def group_key(p, dim):
            n = per_user[p.user_id]["trips"]
            return {
                "age_band": p.age_band.value, "gender": p.gender.value,
                "employment": p.employment.value, "occupation": p.occupation.value,
                "student_status": p.student_status.value,
                "licence": "yes" if p.has_licence else "no",
                "n_trips": str(n) if n < 3 else "3+",
                "household_size": str(p.household_size) if p.household_size < 6 else "6+",
                "household_cars": str(p.household_cars) if p.household_cars < 4 else "4+",
                "cars_per_person_ratio": ratio_bucket(p.household_cars, p.household_size),
            }[dim]

        for report in leftovers:
            expect = {}
            for p in result.persons:
                label = group_key(p, report.dimension)
                g = expect.setdefault(label, [0, 0])
                g[0] += 1
                g[1] += result.grants[p.user_id].centi - per_user[p.user_id]["cost"]
            for row in report.rows:
                n, net = expect.get(row.group, [0, 0])
                assert row.n_users == n
                assert row.net_total_centi == net  # to the centi-token

        # and every trip report value
        for report in trip_reports:
            if report.breakdown == "by_mode":
                for row in report.rows:
                    sel = [t for t in result.trips if t.mode.value == row.label]
                    assert row.n_trips == len(sel)
                    assert row.total_centi == sum(oracle_costs[t.trip_id] for t in sel)
            elif report.breakdown == "tokens_per_hour":
                for row in report.rows:
                    sel = [t for t in result.trips
                           if min(23, int(t.end_time // 3600)) == int(row.label)]
                    assert row.total_centi == sum(oracle_costs[t.trip_id] for t in sel)
            elif report.breakdown == "trips_per_hour":
                assert sum(r.n_trips for r in report.rows) == len(result.trips)
    _pass(7, "oracle equivalence on 100 instances, exact to the centi-token")


def test_criterion_08_determinism(tmp_path):
    for sub in ("first", "second"):
        cfg = SimulationConfig(seed=99, synthetic_users=400,
                               out_dir=str(tmp_path / sub))
        result = run(cfg, out_dir=tmp_path / sub)
        from carbonledger.analytics import all_reports, export_reports
        leftovers, trip_reports = all_reports(result)
        export_reports(leftovers, trip_reports, tmp_path / sub / "reports", {
            "seed": 99, "config_hash": cfg.config_hash(),
            "ledger_head": result.ledger.head.block_hash,
        })
    a, b = tmp_path / "first", tmp_path / "second"
    compared = 0
    for path_a in sorted(a.rglob("*")):
        if path_a.is_dir() or path_a.name == "manifest.json":
            continue  # manifests carry a generation timestamp
        path_b = b / path_a.relative_to(a)
        assert path_a.read_bytes() == path_b.read_bytes(), path_a.name
        compared += 1
    assert compared >= 20  # ledger export, wallets, trace, 16 report CSVs, ...
    _pass(8, f"determinism: {compared} artifacts byte-identical across reruns")


def test_criterion_09_zero_emission_day(tmp_path):
    profile = load_profile()
    for age in profile["mode_shares_by_age"]:
        profile["mode_shares_by_age"][age] = {"walk": 0.55, "bicycle": 0.45}
    path = tmp_path / "carfree.json"
    path.write_text(json.dumps(profile))
    result = run(SimulationConfig(seed=4, synthetic_users=150,
                                  profile_file=str(path)))
    assert result.trips  # a real day, just emission-free
    assert result.submitted == 0  # zero settlements
    assert len(result.ledger.chain) == 1
    for uid, addr in result.user_addresses.items():
        assert result.ledger.balance(addr) == result.grants[uid]
    _pass(9, "zero-emission day: no settlements, balances equal grants")


def test_criterion_10_report_pipeline_smoke(tmp_path):
    from carbonledger.analytics import DIMENSIONS, BREAKDOWNS, all_reports, export_reports

    result = run(SimulationConfig())  # the default synthetic population
    leftovers, trip_reports = all_reports(result)
    assert [r.dimension for r in leftovers] == list(DIMENSIONS)
    assert [r.breakdown for r in trip_reports] == list(BREAKDOWNS)
    paths = export_reports(leftovers, trip_reports, tmp_path, {
        "seed": 0, "config_hash": result.config.config_hash(),
        "ledger_head": result.ledger.head.block_hash,
    })
    csvs = [p for p in paths if p.suffix == ".csv"]
    assert len(csvs) == 16

    # schema check on every file
    for path in csvs:
        rows = list(csv_mod.reader(path.read_text().splitlines()))
        header, body = rows[0], rows[1:]
        assert body, path.name
        assert all(len(r) == len(header) for r in body), path.name
        if path.name.startswith("leftover_"):
            assert header[:5] == ["group", "n_users", "mean_net_tokens",
                                  "mean_trips", "mean_distance_m"]

    # reconciliation invariants on the shipped population
    for report in leftovers:
        assert sum(r.n_users for r in report.rows) == len(result.persons)
        global_net = sum(result.grants[p.user_id].centi for p in result.persons) - \
            sum(result.trip_costs[t.trip_id][1].centi for t in result.trips)
        assert sum(r.net_total_centi for r in report.rows) == global_net

    # the original survey's group means are not reproducible from synthetic
    # data; the README must say so
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "synthetic" in text.lower()
    assert "not reproduc" in text.lower() or "cannot be reproduced" in text.lower()
    _pass(10, "report pipeline: 16 schemas + reconciliation on default population")
