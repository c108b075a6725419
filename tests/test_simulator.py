"""Day replay: settlement completeness, determinism, metrics."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import get_type_hints

import pytest

import carbonledger
from carbonledger.cli import main as cli_main
from carbonledger.emissions import Mode
from carbonledger.ledger import (Block, TokenTransaction, TxKind, _tx_from_obj, block_to_line,
                                 export_chain, import_chain, validate_stateless, verify_chain)
from carbonledger.market import MARKET_ADDRESS, RETIREMENT_ADDRESS
from carbonledger.population import load_profile, write_population, generate_synthetic
from carbonledger.simulator import (
    MetricsReport,
    SimulationConfig,
    SimulationResult,
    _settlement_description,
    child_seed,
    collect_metrics,
    run,
)
from carbonledger.tokens import TokenAmount, total


def small_config(**overrides) -> SimulationConfig:
    cfg = SimulationConfig(seed=7, synthetic_users=25)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


@pytest.fixture(scope="module")
def day():
    return run(small_config())


def test_throughput_is_total_on_a_clean_network(day):
    assert day.throughput == 1.0
    assert day.submitted == day.committed > 0


def test_chain_verifies_after_the_day(day):
    assert verify_chain(day.ledger).ok


def test_settlement_completeness(day):
    # every motorized trip yields exactly one payment and at most one
    # purchase; zero-emission trips yield nothing
    payments = {}
    purchases = {}
    for block in day.ledger.chain:
        for tx in block.txs:
            if tx.kind is TxKind.TRIP_PAYMENT:
                trip_id = tx.description.split("trip:")[1].split(";")[0]
                payments[trip_id] = payments.get(trip_id, 0) + 1
            elif tx.kind is TxKind.PURCHASE:
                trip_id = tx.description.split("trip:")[1].split(";")[0]
                purchases[trip_id] = purchases.get(trip_id, 0) + 1
    for trip in day.trips:
        _, cost = day.trip_costs[trip.trip_id]
        if cost.centi > 0:
            assert payments.get(trip.trip_id) == 1
            assert purchases.get(trip.trip_id, 0) <= 1
        else:
            assert trip.trip_id not in payments


def test_clock_monotonicity(day):
    stamps = [tx.timestamp for block in day.ledger.chain for tx in block.txs]
    assert stamps == sorted(stamps)


def test_latency_sample_count_matches_committed(day):
    assert len(day.latencies_ms) == day.committed
    assert sum(day.tx_per_minute) == day.committed


def test_conservation_wallets_retired_pool_equals_minted(day):
    ledger = day.ledger
    assert sum(ledger.balances.values()) == ledger.minted_centi
    user_total = sum(ledger.balance(a).centi for a in day.user_addresses.values())
    pool = ledger.balance(MARKET_ADDRESS).centi
    retired = ledger.balance(RETIREMENT_ADDRESS).centi
    assert user_total + pool + retired == ledger.minted_centi


def test_per_user_position_bookkeeping(day):
    # grant - spent + purchased - sold == wallet balance, for every user
    spent = {}
    purchased = {}
    sold = {}
    for block in day.ledger.chain[1:]:
        for tx in block.txs:
            if tx.kind is TxKind.TRIP_PAYMENT:
                spent[tx.sender] = spent.get(tx.sender, 0) + tx.amount.centi
            elif tx.kind is TxKind.PURCHASE:
                purchased[tx.receiver] = purchased.get(tx.receiver, 0) + tx.amount.centi
            elif tx.kind is TxKind.SALE:
                sold[tx.sender] = sold.get(tx.sender, 0) + tx.amount.centi
    assert purchased  # the default day exercises the deficit-purchase path
    for uid, addr in day.user_addresses.items():
        position = (day.grants[uid].centi - spent.get(addr, 0)
                    + purchased.get(addr, 0) - sold.get(addr, 0))
        assert position == day.ledger.balance(addr).centi


def test_identical_config_identical_artifacts(tmp_path):
    a = run(small_config(), out_dir=tmp_path / "a")
    b = run(small_config(), out_dir=tmp_path / "b")
    for name in ("ledger.ndjson", "wallets.csv", "consensus_trace.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# sha256 over each pinned day's artifact set: ledger.ndjson, wallets.csv,
# metrics.json, consensus_trace.csv and the 16 report CSVs.  The faulty days
# have failed rounds, so tallies short of quorum reach the trace, and failed
# pools, whose trips the reports charge nothing; the 32-validator day adds a
# `delay` node and n > 7.
GOLDEN_DAYS = {
    "4 validators": (
        {}, "63025e9fff7d9cecab118a9da69ae54ded486a0c39fe2406974a17c528e2399f"),
    "7 validators, 10% drops, silent and equivocating nodes": (
        {"n_active_nodes": 7, "drop_probability": 0.1,
         "byzantine": ((5, "silent"), (6, "equivocate"))},
        "d0a7d6f8537aed5ff9e4cd354d8314a15fed7a9da612eef6b1f6b4b477cf4e8e"),
    "32 validators, 5% drops, silent, delay and equivocating nodes": (
        {"synthetic_users": 60, "n_active_nodes": 32, "drop_probability": 0.05,
         "byzantine": ((29, "silent"), (30, "delay"), (31, "equivocate"))},
        "89b4f9f9fb49dcee9a0590c1240bb337df1c8ba8877ec086b428775000e2cc79"),
}


def golden_set(run_dir: Path) -> list[Path]:
    """The artifacts a golden digest covers, after `simulate` and `report`."""
    paths = [run_dir / n for n in ("ledger.ndjson", "wallets.csv", "metrics.json",
                                   "consensus_trace.csv")]
    paths += sorted((run_dir / "reports").glob("*.csv"))
    assert len(paths) == 20
    return paths


@pytest.mark.parametrize("name", sorted(GOLDEN_DAYS))
def test_pinned_seed_artifacts_match_golden_digest(name, tmp_path):
    overrides, expected = GOLDEN_DAYS[name]
    run(SimulationConfig(seed=7, **overrides), out_dir=tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["report", str(tmp_path)]) == 0
    digest = hashlib.sha256()
    for path in golden_set(tmp_path):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == expected


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    # each run is a fresh interpreter with its own str hash seed, so output
    # that followed set or dict order of hashed keys would differ here
    overrides, _ = GOLDEN_DAYS["7 validators, 10% drops, silent and equivocating nodes"]
    cfg = tmp_path / "day.json"
    cfg.write_text(json.dumps({"seed": 7, "synthetic_users": 40, **overrides}))
    src = str(Path(carbonledger.__file__).resolve().parents[1])
    runs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hashseed{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for argv in (["simulate", "-c", str(cfg), "--out", str(out)], ["report", str(out)]):
            subprocess.run([sys.executable, "-m", "carbonledger.cli", *argv],
                           env=env, check=True, capture_output=True, timeout=120)
        runs.append({path.name: path.read_bytes() for path in golden_set(out)})
    assert runs[0] == runs[1]


def test_streamed_export_is_its_block_lines_and_imports_as_its_text(tmp_path):
    overrides, _ = GOLDEN_DAYS["7 validators, 10% drops, silent and equivocating nodes"]
    result = run(SimulationConfig(seed=7, **overrides), out_dir=tmp_path)
    path = tmp_path / "ledger.ndjson"
    expected = "".join(block_to_line(b) + "\n" for b in result.ledger.chain)
    assert path.read_bytes() == expected.encode()
    with open(path, encoding="utf-8") as fh:
        from_file = import_chain(fh)
    assert from_file.chain == import_chain(expected).chain == result.ledger.chain
    assert from_file.balances == result.ledger.balances


def test_chain_files_are_streamed_one_block_at_a_time(tmp_path):
    # neither side holds the whole export: writing allocates less than the
    # file's size at its peak (the genesis line, one grant per user, is the
    # largest block), and reading allocates little beyond the ledger it keeps
    result = run(small_config(synthetic_users=1000))
    path = tmp_path / "ledger.ndjson"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with open(path, "w", encoding="utf-8") as fh:
            export_chain(result.ledger, fh)
        export_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        with open(path, encoding="utf-8") as fh:
            imported = import_chain(fh)
        kept, import_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert export_peak < 1.0 * size
    assert import_peak - kept < 0.25 * size
    assert imported.chain == result.ledger.chain


def test_export_holds_no_whole_block_line(tmp_path):
    # the genesis line of a 1,000-user day (one grant per user) is the
    # export's largest; written one transaction at a time, the export peaks
    # at about 0.016x the file's size (0.81x when each line was built whole)
    result = run(small_config(synthetic_users=1000))
    path = tmp_path / "ledger.ndjson"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with open(path, "w", encoding="utf-8") as fh:
            export_chain(result.ledger, fh)
        export_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert export_peak < 0.05 * path.stat().st_size
    # each line, written in pieces, is one compact JSON object
    for line in path.read_text(encoding="utf-8").splitlines():
        assert json.dumps(json.loads(line), separators=(",", ":")) == line


def test_reports_reconcile_with_the_chain_on_a_faulty_day(tmp_path):
    overrides, _ = GOLDEN_DAYS["7 validators, 10% drops, silent and equivocating nodes"]
    result = run(SimulationConfig(seed=7, **overrides), out_dir=tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["report", str(tmp_path)]) == 0
    committed = [tx for block in result.ledger.chain[1:] for tx in block.txs]
    paid = sum(tx.amount.centi for tx in committed if tx.kind is TxKind.TRIP_PAYMENT)
    operator = sum(tx.amount.centi for tx in committed
                   if tx.kind is TxKind.OPERATOR_SETTLEMENT)

    # the reports charge exactly the committed trip payments
    with open(tmp_path / "reports" / "trip_by_mode.csv", newline="") as fh:
        charged = sum(TokenAmount.parse(row["total_tokens"]).centi
                      for row in csv.DictReader(fh))
    assert charged == paid
    # ... which, with the operator payments, are what was retired
    retired = result.ledger.balance(RETIREMENT_ADDRESS).centi
    assert paid + operator == retired

    # the costly trips left unpaid are exactly the failed pools' trips: each
    # failed pool holds one unpaid trip's payment, and failed_txs.ndjson holds
    # every failed pool's transactions, pool by pool
    with open(tmp_path / "failed_pools.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(int(r["last_round"]) - int(r["first_round"]) + 1 == 3  # max_round_retries
               and r["last_outcome"] in ("no_quorum", "round_timeout") for r in rows)
    pools = [r["tx_ids"].split(";") for r in rows]
    failed = [_tx_from_obj(json.loads(line))
              for line in (tmp_path / "failed_txs.ndjson").read_text().splitlines()]
    assert [tx.tx_id for tx in failed] == [tx_id for pool in pools for tx_id in pool]
    assert all(validate_stateless(tx).ok and tx.tx_id not in result.ledger.tx_index
               for tx in failed)
    payments = {tx.description: tx for tx in failed if tx.kind is TxKind.TRIP_PAYMENT}
    unpaid = [t for t in result.trips if result.trip_costs[t.trip_id][1].centi > 0
              and result.trip_payments[t.trip_id].centi == 0]
    assert pools and len(pools) == len(unpaid) == len(payments)
    retirement = RETIREMENT_ADDRESS
    for t in unpaid:
        tx = payments[_settlement_description(t)]
        assert (tx.sender, tx.receiver, tx.amount) == (
            result.user_addresses[t.user_id], retirement, result.trip_costs[t.trip_id][1])
    payment_ids = {tx.tx_id for tx in payments.values()}
    assert all(len(payment_ids.intersection(pool)) == 1 for pool in pools)


def test_different_seeds_diverge():
    a = run(small_config())
    b = run(small_config(seed=8))
    assert a.ledger.head.block_hash != b.ledger.head.block_hash


def _typed(value):
    """`value` with the type of every tuple in it, so that a NamedTuple and a
    plain tuple of the same values compare unequal."""
    if isinstance(value, tuple):
        return type(value), tuple(map(_typed, value))
    return type(value), value


def test_built_and_imported_chains_hold_the_same_typed_objects(tmp_path):
    # what the benchmark's day check reads: `Block`s of `TokenTransaction`s
    # whose `kind` is a `TxKind` and whose `amount` is a `TokenAmount`
    overrides, _ = GOLDEN_DAYS["7 validators, 10% drops, silent and equivocating nodes"]
    result = run(SimulationConfig(seed=7, **overrides), out_dir=tmp_path)
    with open(tmp_path / "ledger.ndjson", encoding="utf-8") as fh:
        imported = import_chain(fh).chain
    built = result.ledger.chain
    assert len(imported) == len(built) > 1
    for chain in (built, imported):
        for block in chain:
            assert type(block) is Block
            for tx in block.txs:
                assert type(tx) is TokenTransaction
                assert tx.kind is TxKind(tx.kind_text)
                assert tx.amount == TokenAmount.parse(tx.amount_text)
    for height, (built_block, imported_block) in enumerate(zip(built, imported)):
        assert _typed(imported_block) == _typed(built_block), height


def test_zero_trip_day_leaves_only_genesis(tmp_path):
    persons, _ = generate_synthetic(1, 5)
    write_population(persons, [], tmp_path / "p.csv", tmp_path / "t.csv")
    cfg = small_config(persons_file=str(tmp_path / "p.csv"),
                       trips_file=str(tmp_path / "t.csv"))
    result = run(cfg)
    assert len(result.ledger.chain) == 1
    assert result.submitted == 0
    assert result.throughput is None
    assert result.cap == TokenAmount.zero()


def test_all_walk_day_settles_nothing(tmp_path):
    profile = load_profile()
    for age in profile["mode_shares_by_age"]:
        profile["mode_shares_by_age"][age] = {"walk": 0.6, "bicycle": 0.4}
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(profile))
    result = run(small_config(profile_file=str(path), synthetic_users=40))
    assert result.submitted == 0
    assert len(result.ledger.chain) == 1
    # nobody paid anything: balances equal grants (all zero here, cap is zero)
    for uid, addr in result.user_addresses.items():
        assert result.ledger.balance(addr) == result.grants[uid]


def test_operator_settlements_appear_when_enabled():
    for enabled in (False, True):
        result = run(small_config(operator_pays_remainder=enabled, synthetic_users=60, seed=3))
        kinds = [tx.kind for block in result.ledger.chain for tx in block.txs]
        assert any(t.mode in (Mode.BUS, Mode.SCHOOL_BUS) for t in result.trips)
        assert (TxKind.OPERATOR_SETTLEMENT in kinds) == enabled


def test_cap_tokens_sets_the_granted_cap(day):
    cap = TokenAmount(day.cap.centi * 2)
    result = run(small_config(cap_tokens=str(cap)))
    assert result.cap == cap
    assert total(result.grants.values()) == cap
    assert verify_chain(result.ledger).ok


def test_batching_window_reduces_blocks():
    single = run(small_config())
    batched = run(small_config(batch_window=5))
    assert len(batched.ledger.chain) < len(single.ledger.chain)
    assert batched.committed == single.committed
    assert verify_chain(batched.ledger).ok


def test_byzantine_equivocator_does_not_dent_throughput():
    result = run(small_config(byzantine=((3, "equivocate"),)))
    assert result.throughput == 1.0
    assert result.equivocations


# --- metrics ---


def test_metrics_example_rate():
    # 8,640 committed transactions over the 1,440 simulated minutes
    stub = MetricsReport(8640, 8640, 1.0, None, None, 8640 / 1440, [6] * 1440)
    assert stub.mean_tx_per_minute == 6.0


def test_metrics_hand_computed_latency(day):
    fake = SimulationResult(
        config=day.config, ledger=day.ledger, persons=[], trips=[],
        trip_costs={}, trip_payments={}, grants={}, user_addresses={},
        cap=TokenAmount.zero(),
        latencies_ms=[30.0, 40.0, 40.0, 38.0], submitted=4, committed=4,
        tx_per_minute=[0] * 1440, consensus_trace=[], equivocations=[],
        failed_pools=[], rejects=[],
    )
    report = collect_metrics(fake)
    assert report.latency_mean_ms == pytest.approx(37.0)
    assert report.throughput == 1.0


def test_metrics_empty_run_flags_not_applicable(day):
    fake = SimulationResult(
        config=day.config, ledger=day.ledger, persons=[], trips=[],
        trip_costs={}, trip_payments={}, grants={}, user_addresses={},
        cap=TokenAmount.zero(),
        latencies_ms=[], submitted=0, committed=0,
        tx_per_minute=[0] * 1440, consensus_trace=[], equivocations=[],
        failed_pools=[], rejects=[],
    )
    report = collect_metrics(fake)
    assert report.throughput is None
    assert report.latency_mean_ms is None
    assert "n/a" in report.to_json()


# --- config plumbing ---


def test_config_round_trip_and_hash_stability():
    cfg = small_config(byzantine=((1, "silent"),))
    again = SimulationConfig.from_json(cfg.to_canonical_json())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_readme_config_example_lists_every_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("`simulate -c day.json`", 1)[1].split("```json\n", 1)[1]
    example = example.split("```", 1)[0]
    assert list(json.loads(example)) == list(get_type_hints(SimulationConfig))
    SimulationConfig.from_json(example)  # each value has its field's type


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError):
        SimulationConfig.from_json('{"bogus": 1}')


def test_child_seeds_are_stable_and_distinct():
    assert child_seed(7, "population") == child_seed(7, "population")
    assert child_seed(7, "population") != child_seed(7, "network")
    assert child_seed(7, "population") != child_seed(8, "population")


def test_artifacts_written(tmp_path):
    result = run(small_config(), out_dir=tmp_path)
    for name in ("ledger.ndjson", "wallets.csv", "metrics.json", "consensus_trace.csv",
                 "equivocations.csv", "failed_pools.csv", "failed_txs.ndjson",
                 "manifest.json", "run_config.json"):
        assert (tmp_path / name).exists()
    assert (tmp_path / "population" / "persons.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["hash_algorithm"] == "sha256"
    inputs = ("population/persons.csv", "population/trips.csv", "run_config.json")
    assert sorted(manifest["inputs"]) == sorted(inputs)
    for name in inputs:
        assert manifest["inputs"][name] == hashlib.sha256(
            (tmp_path / name).read_bytes()).hexdigest()
    # written even when every pool committed, and kept out of the manifest
    assert result.failed_pools == []
    assert (tmp_path / "failed_pools.csv").read_text() == (
        "first_round,last_round,last_outcome,tx_ids\n")
    assert (tmp_path / "failed_txs.ndjson").read_text() == ""


def test_equivocation_evidence_exported(tmp_path):
    result = run(small_config(synthetic_users=60, n_active_nodes=7, drop_probability=0.1,
                              byzantine=((5, "silent"), (6, "equivocate"))),
                 out_dir=tmp_path)
    lines = (tmp_path / "equivocations.csv").read_text().splitlines()
    assert lines[0] == "round,voter,hashes"
    assert result.equivocations and len(lines) == 1 + len(result.equivocations)
    for line, (voter, round_no, hashes) in zip(lines[1:], result.equivocations):
        row = line.split(",")
        assert row == [str(round_no), voter, ";".join(hashes)]
        assert len(hashes) == 2 and voter == result.ledger.validators[6]
