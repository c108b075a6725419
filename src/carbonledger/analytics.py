"""Token-usage breakdowns over a finished simulation.

Net position is accounting, not a wallet: grant minus the tokens paid on
chain, so it goes negative for users whose deficit purchases papered over
the shortfall.  Group means are computed exactly over integer centi-tokens
and rounded (half-up, two decimals) only when a report is exported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path
from typing import Mapping, Sequence

from .emissions import Mode, TripRecord
from .ledger import HASH_ALGORITHM
from .population import AgeBand, Employment, Gender, Occupation, StudentStatus, SurveyPerson
from .tokens import TokenAmount


@dataclass(frozen=True)
class DayRecord:
    """What the reports read of a day.  A finished simulation result carries
    the same four fields and can be passed as is."""

    persons: Sequence[SurveyPerson]
    trips: Sequence[TripRecord]
    trip_payments: Mapping[str, TokenAmount]  # trip_id -> tokens paid on chain
    grants: Mapping[str, TokenAmount]  # user_id -> grant


class AnalyticsError(Exception):
    pass


class IoFailure(AnalyticsError):
    pass


BREAKDOWNS = ("by_mode", "by_travel_time_bin", "by_distance_bin",
              "trips_per_hour", "tokens_per_hour", "mode_variety_per_hour")

MODE_ORDER = [Mode.CAR, Mode.RIDE_HAIL, Mode.BUS, Mode.SCHOOL_BUS, Mode.WALK, Mode.BICYCLE]

TIME_BINS = [("<5", 0.0, 5.0), ("5-10", 5.0, 10.0), ("10-20", 10.0, 20.0),
             ("20-30", 20.0, 30.0), (">30", 30.0, float("inf"))]
DISTANCE_BINS = [("<1", 0.0, 1.0), ("1-3", 1.0, 3.0), ("3-5", 3.0, 5.0),
                 ("5-10", 5.0, 10.0), (">10", 10.0, float("inf"))]

_RATIO_BUCKETS = [(0.0, "0"), (1 / 6, "1:6"), (1 / 5, "1:5"), (1 / 4, "1:4"),
                  (1 / 3, "1:3"), (1 / 2, "1:2"), (1.0, "1:1")]


def ratio_bucket(cars: int, persons: int) -> str:
    """Nearest of {0, 1:6, 1:5, 1:4, 1:3, 1:2, 1:1, >1:1}; ties go low."""
    r = cars / persons
    if r > 1.0:
        return ">1:1"
    best = min(_RATIO_BUCKETS, key=lambda item: (abs(r - item[0]), item[0]))
    return best[1]


def _bounded(value: int, top: int) -> str:
    """The count as a label, with `top` and above pooled as "top+"."""
    return str(value) if value < top else f"{top}+"


# dimension -> (its row labels in report order, (person, the person's trip
# count) -> row label); the entries are in report order
_GROUPINGS = {
    "age_band": ([a.value for a in AgeBand], lambda p, n_trips: p.age_band.value),
    "gender": ([g.value for g in Gender], lambda p, n_trips: p.gender.value),
    "employment": ([e.value for e in Employment], lambda p, n_trips: p.employment.value),
    "occupation": ([o.value for o in Occupation], lambda p, n_trips: p.occupation.value),
    "student_status": ([s.value for s in StudentStatus],
                       lambda p, n_trips: p.student_status.value),
    "licence": (["yes", "no"], lambda p, n_trips: "yes" if p.has_licence else "no"),
    "n_trips": (["0", "1", "2", "3+"], lambda p, n_trips: _bounded(n_trips, 3)),
    "household_size": (["1", "2", "3", "4", "5", "6+"],
                       lambda p, n_trips: _bounded(p.household_size, 6)),
    "household_cars": (["0", "1", "2", "3", "4+"],
                       lambda p, n_trips: _bounded(p.household_cars, 4)),
    "cars_per_person_ratio": (["0", "1:6", "1:5", "1:4", "1:3", "1:2", "1:1", ">1:1"],
                              lambda p, n_trips: ratio_bucket(p.household_cars,
                                                              p.household_size)),
}
DIMENSIONS = tuple(_GROUPINGS)


@dataclass
class LeftoverRow:
    group: str
    n_users: int
    net_total_centi: int
    n_trips: int
    total_distance_m: float
    mode_counts: dict[str, int]

    @property
    def mean_net(self) -> Decimal | None:
        if self.n_users == 0:
            return None
        return (Decimal(self.net_total_centi) / (100 * self.n_users)).quantize(
            Decimal("0.01"), rounding=ROUND_HALF_UP
        )

    def mode_share(self, mode: Mode) -> float:
        return self.mode_counts.get(mode.value, 0) / self.n_trips if self.n_trips else 0.0


@dataclass
class LeftoverReport:
    dimension: str
    rows: list[LeftoverRow]


@dataclass
class TripRow:
    label: str
    n_trips: int
    total_centi: int
    extra: dict

    @property
    def mean_tokens(self) -> Decimal | None:
        if self.n_trips == 0:
            return None
        return (Decimal(self.total_centi) / (100 * self.n_trips)).quantize(
            Decimal("0.01"), rounding=ROUND_HALF_UP
        )


@dataclass
class TripReport:
    breakdown: str
    rows: list[TripRow]


# (net centi, trip count, distance in metres, trips per mode value)
UserStats = tuple[int, int, float, dict[str, int]]


def per_user_stats(result: DayRecord) -> dict[str, UserStats]:
    """Each user's stats, by user id."""
    stats = {p.user_id: [result.grants[p.user_id].centi, 0, 0.0, {}] for p in result.persons}
    paid = result.trip_payments
    for trip in result.trips:
        s = stats[trip.user_id]
        s[0] -= paid[trip.trip_id].centi
        s[1] += 1
        s[2] += trip.distance_m
        modes = s[3]
        mode = trip.mode.value
        modes[mode] = modes.get(mode, 0) + 1
    return {uid: tuple(s) for uid, s in stats.items()}


def leftovers_by(result: DayRecord, dimension: str,
                 stats: Mapping[str, UserStats] | None = None) -> LeftoverReport:
    """Mean net position, trip count, distance and mode shares per group.

    `stats` is `per_user_stats(result)`, computed here when not given; it is
    read, never written, so one computation can serve every dimension.
    """
    labels, group_of = _GROUPINGS[dimension]
    if stats is None:
        stats = per_user_stats(result)
    rows = {label: LeftoverRow(label, 0, 0, 0, 0.0, {}) for label in labels}
    for person in result.persons:
        net, n_trips, distance, modes = stats[person.user_id]
        row = rows[group_of(person, n_trips)]
        row.n_users += 1
        row.net_total_centi += net
        row.n_trips += n_trips
        row.total_distance_m += distance
        mode_counts = row.mode_counts
        for mode, count in modes.items():
            mode_counts[mode] = mode_counts.get(mode, 0) + count
    return LeftoverReport(dimension, list(rows.values()))


def trip_breakdown(result: DayRecord, breakdown: str) -> TripReport:
    if breakdown not in BREAKDOWNS:
        raise KeyError(breakdown)
    paid = result.trip_payments

    if breakdown == "by_mode":
        rows = {m.value: TripRow(m.value, 0, 0, {}) for m in MODE_ORDER}
        for t in result.trips:
            row = rows[t.mode.value]
            row.n_trips += 1
            row.total_centi += paid[t.trip_id].centi
        return TripReport(breakdown, list(rows.values()))

    if breakdown in ("by_travel_time_bin", "by_distance_bin"):
        bins = TIME_BINS if breakdown == "by_travel_time_bin" else DISTANCE_BINS
        rows = {label: TripRow(label, 0, 0, {}) for label, _, _ in bins}
        for t in result.trips:
            value = (t.duration_s / 60.0 if breakdown == "by_travel_time_bin"
                     else t.distance_m / 1000.0)
            for label, lo, hi in bins:
                if lo <= value < hi:
                    rows[label].n_trips += 1
                    rows[label].total_centi += paid[t.trip_id].centi
                    break
        if breakdown == "by_distance_bin":
            grand = sum(r.total_centi for r in rows.values())
            for r in rows.values():
                r.extra["token_share"] = r.total_centi / grand if grand else 0.0
        return TripReport(breakdown, list(rows.values()))

    if breakdown == "trips_per_hour":
        rows = [TripRow(str(h), 0, 0, {}) for h in range(24)]
        for t in result.trips:
            rows[min(23, int(t.start_time // 3600))].n_trips += 1
        return TripReport(breakdown, rows)

    if breakdown == "tokens_per_hour":
        # consumption lands at settlement, i.e. at trip completion
        rows = [TripRow(str(h), 0, 0, {}) for h in range(24)]
        for t in result.trips:
            row = rows[min(23, int(t.end_time // 3600))]
            row.n_trips += 1
            row.total_centi += paid[t.trip_id].centi
        return TripReport(breakdown, rows)

    # mode_variety_per_hour
    rows = [TripRow(str(h), 0, 0, {"modes": set()}) for h in range(24)]
    for t in result.trips:
        row = rows[min(23, int(t.start_time // 3600))]
        row.n_trips += 1
        row.extra["modes"].add(t.mode.value)
    for row in rows:
        row.extra["n_modes"] = len(row.extra.pop("modes"))
        row.extra["variety_share"] = row.extra["n_modes"] / len(Mode)
    return TripReport(breakdown, rows)


def all_reports(result: DayRecord) -> tuple[list[LeftoverReport], list[TripReport]]:
    stats = per_user_stats(result)
    return ([leftovers_by(result, d, stats) for d in DIMENSIONS],
            [trip_breakdown(result, b) for b in BREAKDOWNS])


# --- export -------------------------------------------------------------------


def _fmt_mean(value: Decimal | None) -> str:
    return "" if value is None else str(value)


def _leftover_csv(report: LeftoverReport) -> str:
    header = ("group,n_users,mean_net_tokens,mean_trips,mean_distance_m,"
              + ",".join(f"share_{m.value}" for m in MODE_ORDER))
    lines = [header]
    for r in report.rows:
        mean_trips = f"{r.n_trips / r.n_users:.4f}" if r.n_users else ""
        mean_dist = f"{r.total_distance_m / r.n_users:.1f}" if r.n_users else ""
        shares = ",".join(f"{r.mode_share(m):.9f}" for m in MODE_ORDER)
        lines.append(f"{r.group},{r.n_users},{_fmt_mean(r.mean_net)},"
                     f"{mean_trips},{mean_dist},{shares}")
    return "\n".join(lines) + "\n"


def _trip_csv(report: TripReport) -> str:
    if report.breakdown == "by_mode":
        lines = ["mode,n_trips,mean_tokens,total_tokens"]
        for r in report.rows:
            lines.append(f"{r.label},{r.n_trips},{_fmt_mean(r.mean_tokens)},"
                         f"{TokenAmount(r.total_centi)}")
    elif report.breakdown == "by_travel_time_bin":
        lines = ["bin,n_trips,mean_tokens,total_tokens"]
        for r in report.rows:
            lines.append(f"{r.label},{r.n_trips},{_fmt_mean(r.mean_tokens)},"
                         f"{TokenAmount(r.total_centi)}")
    elif report.breakdown == "by_distance_bin":
        lines = ["bin,n_trips,mean_tokens,total_tokens,token_share"]
        for r in report.rows:
            lines.append(f"{r.label},{r.n_trips},{_fmt_mean(r.mean_tokens)},"
                         f"{TokenAmount(r.total_centi)},{r.extra['token_share']:.9f}")
    elif report.breakdown == "trips_per_hour":
        lines = ["hour,n_trips"]
        for r in report.rows:
            lines.append(f"{r.label},{r.n_trips}")
    elif report.breakdown == "tokens_per_hour":
        lines = ["hour,total_tokens"]
        for r in report.rows:
            lines.append(f"{r.label},{TokenAmount(r.total_centi)}")
    else:
        lines = ["hour,n_modes,variety_share"]
        for r in report.rows:
            lines.append(f"{r.label},{r.extra['n_modes']},{r.extra['variety_share']:.9f}")
    return "\n".join(lines) + "\n"


def export_reports(
    leftover_reports: list[LeftoverReport],
    trip_reports: list[TripReport],
    out_dir: str | Path,
    provenance: dict,
) -> list[Path]:
    """Write one CSV per report plus a provenance manifest; returns paths."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = []
        for report in leftover_reports:
            path = out / f"leftover_{report.dimension}.csv"
            path.write_text(_leftover_csv(report))
            written.append(path)
        for report in trip_reports:
            path = out / f"trip_{report.breakdown}.csv"
            path.write_text(_trip_csv(report))
            written.append(path)
        manifest = {
            "seed": provenance.get("seed"),
            "config_hash": provenance.get("config_hash"),
            "ledger_head": provenance.get("ledger_head"),
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "hash_algorithm": HASH_ALGORITHM,
        }
        path = out / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        written.append(path)
        return written
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
