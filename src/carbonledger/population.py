"""Survey population loading and synthetic generation.

CSV schemas:
  persons.csv  user_id,age_band,gender,employment,occupation,student_status,
               has_licence,household_size,household_cars
  trips.csv    trip_id,user_id,mode,start_time,end_time,distance_m,
               passengers,vehicle_class

Structural problems (wrong header, short rows) raise SchemaError and a trip
pointing at an unknown user raises DanglingUserRef; rows with bad field
values are collected into a rejects report instead of being silently
dropped.  The synthetic generator is fully profile-driven and deterministic
per seed; the bundled profile is a labeled synthetic stand-in whose age and
mode marginals follow plausible suburban commuting patterns.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from .emissions import FieldError, Mode, TripRecord


class AgeBand(Enum):
    UNDER_18 = "under_18"
    A18_24 = "18_24"
    A25_39 = "25_39"
    A40_59 = "40_59"
    A60_PLUS = "60_plus"


class Gender(Enum):
    MALE = "male"
    FEMALE = "female"


class Employment(Enum):
    FULL_TIME = "full_time"
    PART_TIME = "part_time"
    HOME_FULL_TIME = "home_full_time"
    HOME_PART_TIME = "home_part_time"
    UNEMPLOYED = "unemployed"


class Occupation(Enum):
    OFFICE_CLERICAL = "office_clerical"
    PROFESSIONAL_MGMT_TECH = "professional_mgmt_tech"
    RETAIL_SALES_SERVICE = "retail_sales_service"
    MANUFACTURING_CONSTRUCTION_TRADES = "manufacturing_construction_trades"
    NONE = "none"


class StudentStatus(Enum):
    FULL_TIME = "full_time"
    PART_TIME = "part_time"
    NONE = "none"


@dataclass(frozen=True)
class SurveyPerson:
    user_id: str
    age_band: AgeBand
    gender: Gender
    employment: Employment
    occupation: Occupation
    student_status: StudentStatus
    has_licence: bool
    household_size: int
    household_cars: int


PERSONS_HEADER = ["user_id", "age_band", "gender", "employment", "occupation",
                  "student_status", "has_licence", "household_size", "household_cars"]
TRIPS_HEADER = ["trip_id", "user_id", "mode", "start_time", "end_time",
                "distance_m", "passengers", "vehicle_class"]

SECONDS_PER_DAY = 86_400


class SchemaError(Exception):
    def __init__(self, row: int, column: str, detail: str = ""):
        super().__init__(f"row {row}, column {column!r}: {detail}")
        self.row = row
        self.column = column


class DanglingUserRef(Exception):
    def __init__(self, row: int, user_id: str):
        super().__init__(f"row {row}: trip references unknown user {user_id!r}")
        self.row = row
        self.user_id = user_id


@dataclass(frozen=True)
class RejectedRow:
    file: str
    row: int
    column: str
    reason: str


def _member_parser(enum_cls):
    """Text -> member of `enum_cls` through a value lookup; a miss goes to
    the enum constructor, which raises its usual ValueError."""
    members = {member.value: member for member in enum_cls}

    def parse(text: str):
        member = members.get(text)
        return enum_cls(text) if member is None else member
    return parse


_age_band = _member_parser(AgeBand)
_gender = _member_parser(Gender)
_employment = _member_parser(Employment)
_occupation = _member_parser(Occupation)
_student_status = _member_parser(StudentStatus)
_mode = _member_parser(Mode)


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _field(rec: dict[str, str], column: str, parse):
    """`parse` applied to one column; a bad value raises FieldError naming it."""
    try:
        return parse(rec[column])
    except ValueError as exc:
        raise FieldError(column, str(exc)) from exc


def load_population(
    persons_path: str | Path, trips_path: str | Path
) -> tuple[list[SurveyPerson], list[TripRecord], list[RejectedRow]]:
    """Load and cross-check both files; trips come back sorted by start time.

    A trips row whose `trip_id` an earlier kept row already holds is
    rejected, so each trip id names one trip."""
    rejects: list[RejectedRow] = []
    persons: list[SurveyPerson] = []

    with open(persons_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != PERSONS_HEADER:
            raise SchemaError(0, "header", f"expected {PERSONS_HEADER}, got {header}")
        for rowno, row in enumerate(reader, start=2):
            if len(row) != len(PERSONS_HEADER):
                raise SchemaError(rowno, "row", f"expected {len(PERSONS_HEADER)} fields")
            rec = dict(zip(PERSONS_HEADER, row))
            try:
                persons.append(SurveyPerson(
                    user_id=rec["user_id"],
                    age_band=_field(rec, "age_band", _age_band),
                    gender=_field(rec, "gender", _gender),
                    employment=_field(rec, "employment", _employment),
                    occupation=_field(rec, "occupation", _occupation),
                    student_status=_field(rec, "student_status", _student_status),
                    has_licence=_field(rec, "has_licence", _parse_bool),
                    household_size=_field(rec, "household_size", int),
                    household_cars=_field(rec, "household_cars", int),
                ))
            except FieldError as exc:
                rejects.append(RejectedRow("persons", rowno, exc.field, str(exc)))
                continue
            p = persons[-1]
            if p.household_size < 1 or p.household_cars < 0:
                persons.pop()
                column = "household_size" if p.household_size < 1 else "household_cars"
                rejects.append(RejectedRow("persons", rowno, column,
                                           "household_size >= 1 and cars >= 0 required"))

    known_users = {p.user_id for p in persons}
    trips: list[TripRecord] = []
    trip_rows: dict[str, int] = {}  # trip_id -> row of the trip kept under it
    with open(trips_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRIPS_HEADER:
            raise SchemaError(0, "header", f"expected {TRIPS_HEADER}, got {header}")
        for rowno, row in enumerate(reader, start=2):
            if len(row) != len(TRIPS_HEADER):
                raise SchemaError(rowno, "row", f"expected {len(TRIPS_HEADER)} fields")
            rec = dict(zip(TRIPS_HEADER, row))
            if rec["user_id"] not in known_users:
                raise DanglingUserRef(rowno, rec["user_id"])
            if rec["trip_id"] in trip_rows:
                rejects.append(RejectedRow(
                    "trips", rowno, "trip_id", f"duplicate trip_id {rec['trip_id']!r}, "
                    f"first on row {trip_rows[rec['trip_id']]}"))
                continue
            try:
                trips.append(TripRecord(
                    trip_id=rec["trip_id"],
                    user_id=rec["user_id"],
                    mode=_field(rec, "mode", _mode),
                    start_time=_field(rec, "start_time", float),
                    end_time=_field(rec, "end_time", float),
                    distance_m=_field(rec, "distance_m", float),
                    passengers=_field(rec, "passengers", int),
                    vehicle_class=rec["vehicle_class"] or None,
                ))
            except FieldError as exc:
                rejects.append(RejectedRow("trips", rowno, exc.field, str(exc)))
                continue
            trip_rows[rec["trip_id"]] = rowno

    trips.sort(key=lambda t: (t.start_time, t.trip_id))
    return persons, trips, rejects


def write_population(persons: Sequence[SurveyPerson], trips: Sequence[TripRecord],
                     persons_path: str | Path, trips_path: str | Path) -> None:
    with open(persons_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(PERSONS_HEADER)
        for p in persons:
            w.writerow([p.user_id, p.age_band.value, p.gender.value,
                        p.employment.value, p.occupation.value,
                        p.student_status.value, str(p.has_licence).lower(),
                        p.household_size, p.household_cars])
    with open(trips_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRIPS_HEADER)
        for t in trips:
            w.writerow([t.trip_id, t.user_id, t.mode.value,
                        f"{t.start_time:.3f}", f"{t.end_time:.3f}",
                        f"{t.distance_m:.1f}", t.passengers,
                        t.vehicle_class or ""])


# --- synthetic generation -----------------------------------------------------


def load_profile(path: Optional[str | Path] = None) -> dict:
    if path is None:
        text = resources.files("carbonledger.data").joinpath("default_profile.json").read_text()
    else:
        text = Path(path).read_text()
    profile = json.loads(text)
    required = {"age_shares", "gender_shares", "employment_shares_by_age",
                "student_shares_by_age", "occupation_shares_employed",
                "licence_rate_by_age", "household_size_shares",
                "household_cars_shares", "mode_shares_by_age",
                "trip_count_shares_by_employment", "distance_m_lognormal_by_mode",
                "speed_kmh_by_mode", "car_passenger_shares", "depart_hour_weights"}
    missing = required - set(profile)
    if missing:
        raise ValueError(f"profile missing keys: {sorted(missing)}")
    return profile


def _pick(rng: random.Random, shares: dict) -> str:
    labels = list(shares)
    weights = [shares[k] for k in labels]
    return rng.choices(labels, weights=weights, k=1)[0]


def generate_synthetic(
    seed: int, n_users: int, profile: Optional[dict] = None
) -> tuple[list[SurveyPerson], list[TripRecord]]:
    """Deterministic synthetic population and day of trips.

    The draw order is fixed, so one seed always yields the same population
    regardless of platform.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    prof = profile if profile is not None else load_profile()
    rng = random.Random(seed)
    lo_m, hi_m = prof.get("distance_m_bounds", [150, 60000])

    persons: list[SurveyPerson] = []
    trips: list[TripRecord] = []
    for i in range(n_users):
        user_id = f"u{i:05d}"
        age = _pick(rng, prof["age_shares"])
        gender = _pick(rng, prof["gender_shares"])
        employment = _pick(rng, prof["employment_shares_by_age"][age])
        student = _pick(rng, prof["student_shares_by_age"][age])
        if employment == "unemployed":
            occupation = "none"
        else:
            occupation = _pick(rng, prof["occupation_shares_employed"])
        licence = rng.random() < prof["licence_rate_by_age"][age]
        household_size = int(_pick(rng, prof["household_size_shares"]))
        household_cars = int(_pick(rng, prof["household_cars_shares"]))
        persons.append(SurveyPerson(
            user_id, AgeBand(age), Gender(gender), Employment(employment),
            Occupation(occupation), StudentStatus(student), licence,
            household_size, household_cars,
        ))

        counts = prof["trip_count_shares_by_employment"][employment]
        n_trips = rng.choices(range(len(counts)), weights=counts, k=1)[0]
        for k in range(n_trips):
            mode = _pick(rng, prof["mode_shares_by_age"][age])
            mu, sigma = prof["distance_m_lognormal_by_mode"][mode]
            distance = min(max(math.exp(rng.gauss(mu, sigma)), lo_m), hi_m)
            v_lo, v_hi = prof["speed_kmh_by_mode"][mode]
            speed = rng.uniform(v_lo, v_hi)
            duration = max(120.0, distance / 1000.0 / speed * 3600.0)
            hour = rng.choices(range(24), weights=prof["depart_hour_weights"], k=1)[0]
            start = hour * 3600.0 + rng.uniform(0, 3599.0)
            if start + duration > SECONDS_PER_DAY - 1:
                start = SECONDS_PER_DAY - 1 - duration
            if mode in ("car", "ride_hail"):
                shares = prof["car_passenger_shares"]
                passengers = rng.choices(range(1, len(shares) + 1),
                                         weights=shares, k=1)[0]
            else:
                passengers = 1
            trips.append(TripRecord(
                trip_id=f"t{i:05d}-{k}",
                user_id=user_id,
                mode=Mode(mode),
                start_time=round(start, 3),
                end_time=round(start + duration, 3),
                distance_m=round(distance, 1),
                passengers=passengers,
            ))

    trips.sort(key=lambda t: (t.start_time, t.trip_id))
    return persons, trips
