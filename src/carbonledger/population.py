"""Survey population loading and synthetic generation.

CSV schemas:
  persons.csv  user_id,age_band,gender,employment,occupation,student_status,
               has_licence,household_size,household_cars
  trips.csv    trip_id,user_id,mode,start_time,end_time,distance_m,
               passengers,vehicle_class

Structural problems (wrong header, short rows) raise SchemaError and a trip
pointing at a user in no persons row raises DanglingUserRef; rows with bad
field values or a repeated id, and the trips of a rejected person, are
collected into a rejects report instead of being silently dropped.  The
synthetic generator is fully profile-driven and deterministic per seed; the
bundled profile is a labeled synthetic stand-in whose age and mode marginals
follow plausible suburban commuting patterns.
"""

from __future__ import annotations

import csv
import json
import math
import random
from bisect import bisect
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from itertools import accumulate
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TextIO

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


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(text: str) -> bool:
    value = _BOOLS.get(text.lower())
    if value is None:
        raise ValueError(f"not a boolean: {text!r}")
    return value


_trip_order = attrgetter("start_time", "trip_id")


def _refuse_nul(lines: Iterable[str]) -> Iterator[str]:
    for lineno, line in enumerate(lines, start=1):
        if "\0" in line:
            raise SchemaError(lineno, "row", "line contains NUL")
        yield line


@contextmanager
def _csv_rows(source: str | Path | TextIO) -> Iterator[Iterator[list[str]]]:
    """The rows of a CSV file given by path (opened with ``newline=""`` and
    closed on exit) or of an open text stream.  A line the csv module cannot
    read (a field past its size limit) is a schema error, and so is a line
    holding a NUL byte, which the csv module reads from Python 3.11 on."""
    with (open(source, newline="") if isinstance(source, (str, Path))
          else nullcontext(source)) as fh:
        reader = csv.reader(_refuse_nul(fh))
        try:
            yield reader
        except csv.Error as exc:
            raise SchemaError(reader.line_num, "row", str(exc)) from exc


def load_population(
    persons_path: str | Path | TextIO, trips_path: str | Path | TextIO
) -> tuple[list[SurveyPerson], list[TripRecord], list[RejectedRow]]:
    """Load and cross-check both files, given as paths or as open text
    streams; trips come back sorted by start time.

    A row whose `user_id` (persons) or `trip_id` (trips) an earlier kept row
    already holds is rejected, so each id names one person or one trip.  A
    bad value is rejected under the first column, in file order, that fails
    to parse, or under the column a `TripRecord` check names.  The trips of a
    user whose only persons rows were rejected are rejected under `user_id`."""
    rejects: list[RejectedRow] = []
    persons: list[SurveyPerson] = []
    user_rows: dict[str, int] = {}  # user_id -> row of the person kept under it
    rejected_rows: dict[str, int] = {}  # user_id -> first rejected row holding it

    with _csv_rows(persons_path) as reader:
        header = next(reader, None)
        if header != PERSONS_HEADER:
            raise SchemaError(0, "header", f"expected {PERSONS_HEADER}, got {header}")
        for rowno, row in enumerate(reader, start=2):
            if len(row) != len(PERSONS_HEADER):
                raise SchemaError(rowno, "row", f"expected {len(PERSONS_HEADER)} fields")
            user_id, age_band, gender, employment, occupation, student, licence, size, cars = row
            if user_id in user_rows:
                rejects.append(RejectedRow(
                    "persons", rowno, "user_id", f"duplicate user_id {user_id!r}, "
                    f"first on row {user_rows[user_id]}"))
                continue
            column = "age_band"
            try:
                age_band = _age_band(age_band)
                column = "gender"
                gender = _gender(gender)
                column = "employment"
                employment = _employment(employment)
                column = "occupation"
                occupation = _occupation(occupation)
                column = "student_status"
                student = _student_status(student)
                column = "has_licence"
                licence = _parse_bool(licence)
                column = "household_size"
                size = int(size)
                column = "household_cars"
                cars = int(cars)
                if size < 1 or cars < 0:
                    column = "household_size" if size < 1 else "household_cars"
                    raise ValueError("household_size >= 1 and cars >= 0 required")
            except ValueError as exc:
                rejects.append(RejectedRow("persons", rowno, column, str(exc)))
                rejected_rows.setdefault(user_id, rowno)
                continue
            persons.append(SurveyPerson(user_id, age_band, gender, employment, occupation,
                                        student, licence, size, cars))
            user_rows[user_id] = rowno

    trips: list[TripRecord] = []
    trip_rows: dict[str, int] = {}  # trip_id -> row of the trip kept under it
    with _csv_rows(trips_path) as reader:
        header = next(reader, None)
        if header != TRIPS_HEADER:
            raise SchemaError(0, "header", f"expected {TRIPS_HEADER}, got {header}")
        for rowno, row in enumerate(reader, start=2):
            if len(row) != len(TRIPS_HEADER):
                raise SchemaError(rowno, "row", f"expected {len(TRIPS_HEADER)} fields")
            trip_id, user_id, mode, start, end, distance, passengers, vehicle_class = row
            if user_id not in user_rows:
                if user_id not in rejected_rows:
                    raise DanglingUserRef(rowno, user_id)
                rejects.append(RejectedRow(
                    "trips", rowno, "user_id", f"user {user_id!r} was rejected "
                    f"on persons row {rejected_rows[user_id]}"))
                continue
            if trip_id in trip_rows:
                rejects.append(RejectedRow(
                    "trips", rowno, "trip_id", f"duplicate trip_id {trip_id!r}, "
                    f"first on row {trip_rows[trip_id]}"))
                continue
            column = "mode"
            try:
                mode = _mode(mode)
                column = "start_time"
                start = float(start)
                column = "end_time"
                end = float(end)
                column = "distance_m"
                distance = float(distance)
                column = "passengers"
                passengers = int(passengers)
                trips.append(TripRecord(trip_id, user_id, mode, start, end, distance,
                                        passengers, vehicle_class or None))
            except FieldError as exc:  # a TripRecord check names its own column
                rejects.append(RejectedRow("trips", rowno, exc.field, str(exc)))
                continue
            except ValueError as exc:
                rejects.append(RejectedRow("trips", rowno, column, str(exc)))
                continue
            trip_rows[trip_id] = rowno

    trips.sort(key=_trip_order)
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
    if not isinstance(profile, dict):
        raise ValueError("profile is not a JSON object")
    required = {"age_shares", "gender_shares", "employment_shares_by_age",
                "student_shares_by_age", "occupation_shares_employed",
                "licence_rate_by_age", "household_size_shares",
                "household_cars_shares", "mode_shares_by_age",
                "trip_count_shares_by_employment", "distance_m_lognormal_by_mode",
                "speed_kmh_by_mode", "car_passenger_shares", "depart_hour_weights"}
    missing = required - set(profile)
    if missing:
        raise ValueError(f"profile missing keys: {sorted(missing)}")
    try:
        missing = _missing_tables(profile)
    except (TypeError, AttributeError, LookupError) as exc:
        raise ValueError(f"profile tables are malformed: {type(exc).__name__}: {exc}") from exc
    if missing:
        raise ValueError(f"profile missing tables: {missing}")
    return profile


def _missing_tables(profile: dict) -> list[str]:
    """The ``table[label]`` entries a draw could look up and the profile
    lacks: each age in `age_shares` needs its four per-age tables, and each
    employment and mode a per-age share table names needs its tables."""
    ages = list(profile["age_shares"])
    per_age = ("employment_shares_by_age", "student_shares_by_age",
               "licence_rate_by_age", "mode_shares_by_age")
    missing = [f"{table}[{age!r}]" for table in per_age for age in ages
               if age not in profile[table]]
    keyed = (("employment_shares_by_age", ("trip_count_shares_by_employment",)),
             ("mode_shares_by_age", ("distance_m_lognormal_by_mode", "speed_kmh_by_mode")))
    for shares, tables in keyed:
        labels = dict.fromkeys(label for age in ages for label in profile[shares].get(age, ()))
        missing += [f"{table}[{label!r}]" for table in tables for label in labels
                    if label not in profile[table]]
    return missing


def _cumulative(labels: Sequence, weights: Sequence[float]) -> tuple:
    """`(labels, cum, total, hi)`: the table `random.choices(labels, weights,
    k=1)` builds for one draw, and the same ValueErrors for a bad one."""
    cum = list(accumulate(weights))
    if len(cum) != len(labels):
        raise ValueError("The number of weights does not match the population")
    total = cum[-1] + 0.0
    if total <= 0.0:
        raise ValueError("Total of weights must be greater than zero")
    if not math.isfinite(total):
        raise ValueError("Total of weights must be finite")
    return labels, cum, total, len(cum) - 1


def _weighted(shares: dict, label=None) -> tuple[list, list]:
    """Labels (through `label`, if given) and weights of a `{label: weight}` share table."""
    labels = list(shares) if label is None else [label(k) for k in shares]
    return labels, list(shares.values())


def _counted(weights: list, first: int = 0) -> tuple[range, list]:
    """Labels `first, first + 1, ...` for a list of weights."""
    return range(first, first + len(weights)), weights


def _draw(random, table):
    """One label of `table`, drawn as `random.choices` draws it from one
    `random()`."""
    labels, cum, total, hi = table
    return labels[bisect(cum, random() * total, 0, hi)]


class _Tables(dict):
    """key -> `_cumulative` table of the distribution `source(key)` gives as
    `(labels, weights)`, built when that key is first drawn, so a bad
    distribution raises where `random.choices` would and one never drawn
    never raises."""

    def __init__(self, source):
        super().__init__()
        self.source = source

    def __missing__(self, key):
        table = self[key] = _cumulative(*self.source(key))
        return table


def generate_synthetic(
    seed: int, n_users: int, profile: Optional[dict] = None
) -> tuple[list[SurveyPerson], list[TripRecord]]:
    """Deterministic synthetic population and day of trips.

    Each weighted choice is one `rng.random()` scaled by the total weight and
    bisected into that distribution's cumulative weights, which are built once
    per distribution.  That is the draw `random.choices(labels, weights, k=1)`
    makes, so it consumes the same numbers and raises the same errors.  The
    draw order is fixed, so one seed always yields the same population
    regardless of platform.  A profile the draws cannot use (a missing
    table, a weight that is not a number, a zero speed) raises ValueError.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    prof = profile if profile is not None else load_profile()
    try:
        return _synthesize(seed, n_users, prof)
    except (LookupError, TypeError, AttributeError, ArithmeticError) as exc:
        # a profile is input: a table it lacks or cannot be drawn from is
        # malformed input, as a bad weight already is
        raise ValueError(f"profile cannot be drawn from: {type(exc).__name__}: {exc}") from exc


def _synthesize(seed: int, n_users: int, prof: dict
                ) -> tuple[list[SurveyPerson], list[TripRecord]]:
    rng = random.Random(seed)
    uniform, gauss, rand = rng.uniform, rng.gauss, rng.random
    lo_m, hi_m = prof.get("distance_m_bounds", [150, 60000])

    singles = {
        "age": lambda: _weighted(prof["age_shares"]),
        "gender": lambda: _weighted(prof["gender_shares"]),
        "occupation": lambda: _weighted(prof["occupation_shares_employed"]),
        "household_size": lambda: _weighted(prof["household_size_shares"], int),
        "household_cars": lambda: _weighted(prof["household_cars_shares"], int),
        "hour": lambda: (range(24), prof["depart_hour_weights"]),
        "passengers": lambda: _counted(prof["car_passenger_shares"], 1),
    }
    tables = _Tables(lambda name: singles[name]())
    employment_by_age = _Tables(lambda age: _weighted(prof["employment_shares_by_age"][age]))
    student_by_age = _Tables(lambda age: _weighted(prof["student_shares_by_age"][age]))
    mode_by_age = _Tables(lambda age: _weighted(prof["mode_shares_by_age"][age]))
    trips_by_employment = _Tables(
        lambda employment: _counted(prof["trip_count_shares_by_employment"][employment]))

    persons: list[SurveyPerson] = []
    trips: list[TripRecord] = []
    for i in range(n_users):
        user_id = f"u{i:05d}"
        age = _draw(rand, tables["age"])
        gender = _draw(rand, tables["gender"])
        employment = _draw(rand, employment_by_age[age])
        student = _draw(rand, student_by_age[age])
        if employment == "unemployed":
            occupation = "none"
        else:
            occupation = _draw(rand, tables["occupation"])
        licence = rand() < prof["licence_rate_by_age"][age]
        household_size = _draw(rand, tables["household_size"])
        household_cars = _draw(rand, tables["household_cars"])
        persons.append(SurveyPerson(
            user_id, _age_band(age), _gender(gender), _employment(employment),
            _occupation(occupation), _student_status(student), licence,
            household_size, household_cars,
        ))

        n_trips = _draw(rand, trips_by_employment[employment])
        for k in range(n_trips):
            mode = _draw(rand, mode_by_age[age])
            mu, sigma = prof["distance_m_lognormal_by_mode"][mode]
            distance = min(max(math.exp(gauss(mu, sigma)), lo_m), hi_m)
            v_lo, v_hi = prof["speed_kmh_by_mode"][mode]
            speed = uniform(v_lo, v_hi)
            duration = max(120.0, distance / 1000.0 / speed * 3600.0)
            hour = _draw(rand, tables["hour"])
            start = hour * 3600.0 + uniform(0, 3599.0)
            if start + duration > SECONDS_PER_DAY - 1:
                start = SECONDS_PER_DAY - 1 - duration
            if mode in ("car", "ride_hail"):
                passengers = _draw(rand, tables["passengers"])
            else:
                passengers = 1
            trips.append(TripRecord(
                f"t{i:05d}-{k}", user_id, _mode(mode), round(start, 3),
                round(start + duration, 3), round(distance, 1), passengers,
            ))

    trips.sort(key=_trip_order)
    return persons, trips
