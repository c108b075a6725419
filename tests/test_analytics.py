"""Report computations checked against brute-force recomputation."""

import json
from decimal import Decimal
from fractions import Fraction

import pytest

from carbonledger.analytics import (
    BREAKDOWNS,
    DIMENSIONS,
    all_reports,
    export_reports,
    leftovers_by,
    ratio_bucket,
    trip_breakdown,
)
from carbonledger.emissions import Mode
from carbonledger.population import load_profile
from carbonledger.simulator import SimulationConfig, run


def make_result(seed=7, users=25, profile_path=None):
    cfg = SimulationConfig(seed=seed, synthetic_users=users)
    if profile_path:
        cfg.profile_file = str(profile_path)
    return run(cfg)


@pytest.fixture(scope="module")
def result():
    return make_result()


# --- brute-force oracle: straight from the raw trip list ---


def oracle_net_by_group(result, group_of):
    """Independent recomputation with Fractions keyed by a grouping lambda."""
    user_cost = {p.user_id: 0 for p in result.persons}
    user_trips = {p.user_id: 0 for p in result.persons}
    user_dist = {p.user_id: Fraction(0) for p in result.persons}
    for t in result.trips:
        user_cost[t.user_id] += result.trip_costs[t.trip_id][1].centi
        user_trips[t.user_id] += 1
        user_dist[t.user_id] += Fraction(str(t.distance_m))
    groups = {}
    for p in result.persons:
        label = group_of(p, user_trips[p.user_id])
        g = groups.setdefault(label, {"n": 0, "net": 0, "trips": 0})
        g["n"] += 1
        g["net"] += result.grants[p.user_id].centi - user_cost[p.user_id]
        g["trips"] += user_trips[p.user_id]
    return groups


def test_two_users_same_group_mean(result):
    report = leftovers_by(result, "gender")
    oracle = oracle_net_by_group(result, lambda p, n: p.gender.value)
    for row in report.rows:
        if row.group in oracle:
            assert row.net_total_centi == oracle[row.group]["net"]
            assert row.n_users == oracle[row.group]["n"]
            assert row.n_trips == oracle[row.group]["trips"]


def test_simple_mean_is_exact():
    # hand instance: nets 10.00 and 20.00 in one group -> mean 15.00
    from carbonledger.analytics import LeftoverRow
    row = LeftoverRow("g", 2, 3000, 0, 0.0, {})
    assert row.mean_net == Decimal("15.00")


def test_every_dimension_reconciles_to_global(result):
    stats_total = sum(
        result.grants[p.user_id].centi for p in result.persons
    ) - sum(result.trip_costs[t.trip_id][1].centi for t in result.trips)
    for dim in DIMENSIONS:
        report = leftovers_by(result, dim)
        assert sum(r.n_users for r in report.rows) == len(result.persons)
        assert sum(r.net_total_centi for r in report.rows) == stats_total


def test_mode_share_vectors_sum_to_one(result):
    for dim in DIMENSIONS:
        for row in leftovers_by(result, dim).rows:
            if row.n_trips:
                assert abs(sum(row.mode_share(m) for m in Mode) - 1.0) < 1e-9


def test_licence_grouping_with_forced_zero_cost(tmp_path):
    # non-holders only walk, so their mean net equals the grant exactly
    profile = load_profile()
    for age in profile["mode_shares_by_age"]:
        profile["mode_shares_by_age"][age] = {"walk": 1.0}
    path = tmp_path / "walkers.json"
    path.write_text(json.dumps(profile))
    result = make_result(seed=3, users=30, profile_path=path)
    report = leftovers_by(result, "licence")
    for row in report.rows:
        if row.n_users:
            # cap is zero on an all-walk day, so every grant and net is zero
            assert row.net_total_centi == 0


def test_unknown_dimension_rejected(result):
    with pytest.raises(KeyError):
        leftovers_by(result, "shoe_size")
    with pytest.raises(KeyError):
        trip_breakdown(result, "by_vibe")


def test_ratio_buckets():
    assert ratio_bucket(0, 4) == "0"
    assert ratio_bucket(1, 6) == "1:6"
    assert ratio_bucket(1, 2) == "1:2"
    assert ratio_bucket(3, 3) == "1:1"
    assert ratio_bucket(5, 2) == ">1:1"
    assert ratio_bucket(1, 4) == "1:4"


# --- trip breakdowns ---


def test_by_mode_against_oracle(result):
    report = trip_breakdown(result, "by_mode")
    for row in report.rows:
        trips = [t for t in result.trips if t.mode.value == row.label]
        assert row.n_trips == len(trips)
        assert row.total_centi == sum(
            result.trip_costs[t.trip_id][1].centi for t in trips
        )


def test_single_trip_lands_in_its_time_bin(result):
    report = trip_breakdown(result, "by_travel_time_bin")
    # oracle: recount every bin
    for row in report.rows:
        label = row.label
        def in_bin(minutes):
            return {"<5": minutes < 5, "5-10": 5 <= minutes < 10,
                    "10-20": 10 <= minutes < 20, "20-30": 20 <= minutes < 30,
                    ">30": minutes >= 30}[label]
        expected = [t for t in result.trips if in_bin(t.duration_s / 60)]
        assert row.n_trips == len(expected)
        assert row.total_centi == sum(
            result.trip_costs[t.trip_id][1].centi for t in expected
        )


def test_known_cost_in_the_ten_to_twenty_bin(result):
    # a 12-minute trip costing 206.00 contributes exactly that to its bin
    twelve_minute = [t for t in result.trips if 10 <= t.duration_s / 60 < 20]
    report = trip_breakdown(result, "by_travel_time_bin")
    row = next(r for r in report.rows if r.label == "10-20")
    assert row.n_trips == len(twelve_minute)


def test_distance_token_shares_sum_to_one(result):
    report = trip_breakdown(result, "by_distance_bin")
    total = sum(r.total_centi for r in report.rows)
    if total:
        assert abs(sum(r.extra["token_share"] for r in report.rows) - 1.0) < 1e-9


def test_hourly_trip_counts_conserve(result):
    report = trip_breakdown(result, "trips_per_hour")
    assert sum(r.n_trips for r in report.rows) == len(result.trips)
    assert len(report.rows) == 24


def test_tokens_per_hour_conserves_total(result):
    report = trip_breakdown(result, "tokens_per_hour")
    assert sum(r.total_centi for r in report.rows) == sum(
        c.centi for _, c in result.trip_costs.values()
    )


def test_mode_variety_bounded(result):
    report = trip_breakdown(result, "mode_variety_per_hour")
    for row in report.rows:
        assert 0 <= row.extra["n_modes"] <= 6
        assert row.extra["variety_share"] == row.extra["n_modes"] / 6


def test_all_walk_day_reports_zero_by_mode(tmp_path):
    profile = load_profile()
    for age in profile["mode_shares_by_age"]:
        profile["mode_shares_by_age"][age] = {"walk": 1.0}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(profile))
    result = make_result(seed=5, users=20, profile_path=path)
    report = trip_breakdown(result, "by_mode")
    assert all(r.total_centi == 0 for r in report.rows)


def test_all_reports_equal_each_report_on_its_own(result):
    # all_reports shares one per-user pass between the leftover reports
    leftovers, trip_reports = all_reports(result)
    assert leftovers == [leftovers_by(result, d) for d in DIMENSIONS]
    assert trip_reports == [trip_breakdown(result, b) for b in BREAKDOWNS]


# --- export ---


def test_sixteen_csvs_plus_manifest(result, tmp_path):
    leftovers, trip_reports = all_reports(result)
    assert len(leftovers) == 10 and len(trip_reports) == 6
    paths = export_reports(leftovers, trip_reports, tmp_path, {
        "seed": 7, "config_hash": "x", "ledger_head": result.ledger.head.block_hash,
    })
    csvs = [p for p in paths if p.suffix == ".csv"]
    assert len(csvs) == 16
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["ledger_head"] == result.ledger.head.block_hash
    assert "generated_at" in manifest


def test_rerun_is_byte_identical(tmp_path):
    for sub in ("a", "b"):
        res = make_result()
        leftovers, trip_reports = all_reports(res)
        export_reports(leftovers, trip_reports, tmp_path / sub,
                       {"seed": 7, "config_hash": "x", "ledger_head": "h"})
    for path_a in sorted((tmp_path / "a").glob("*.csv")):
        path_b = tmp_path / "b" / path_a.name
        assert path_a.read_bytes() == path_b.read_bytes()


def test_empty_population_exports_zero_rows(tmp_path):
    # degenerate but valid: reports still have their fixed group rows
    result = make_result(seed=9, users=1)
    leftovers, trip_reports = all_reports(result)
    paths = export_reports(leftovers, trip_reports, tmp_path,
                           {"seed": 9, "config_hash": "x", "ledger_head": "h"})
    assert len(paths) == 17
