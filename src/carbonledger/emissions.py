"""Per-trip greenhouse-gas and token accounting.

Pipeline: average speed -> CO2e grams from a speed-banded factor table ->
per-user grams (occupancy division, per-seat bus charging) -> tokens.
Grams stay at full float precision end to end; rounding to centi-tokens
happens once, at the final conversion.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN
from enum import Enum
from importlib import resources
from typing import Optional

from .tokens import TokenAmount

KM_PER_MILE = 1.609344


class Mode(Enum):
    CAR = "car"
    RIDE_HAIL = "ride_hail"
    BUS = "bus"
    SCHOOL_BUS = "school_bus"
    WALK = "walk"
    BICYCLE = "bicycle"


ZERO_EMISSION = frozenset({Mode.WALK, Mode.BICYCLE})
PER_SEAT_MODES = frozenset({Mode.BUS, Mode.SCHOOL_BUS})


class EmissionsError(Exception):
    pass


class FieldError(ValueError):
    """A record field holds a value its column does not allow."""

    def __init__(self, field: str, detail: str):
        super().__init__(detail)
        self.field = field


class MissingFactor(EmissionsError):
    def __init__(self, class_key: str, speed_kmh: float):
        super().__init__(f"no factor for class {class_key!r} at {speed_kmh:.1f} km/h")
        self.class_key = class_key
        self.speed_kmh = speed_kmh


@dataclass(frozen=True)
class TripRecord:
    """One person-trip. Times are simulated seconds since midnight."""

    trip_id: str
    user_id: str
    mode: Mode
    start_time: float
    end_time: float
    distance_m: float
    passengers: int = 1
    vehicle_class: Optional[str] = None
    origin_ok: bool = True
    destination_ok: bool = True

    def __post_init__(self):
        if self.end_time <= self.start_time:
            raise FieldError("end_time", f"trip {self.trip_id}: end_time must exceed start_time")
        if self.distance_m < 0:
            raise FieldError("distance_m", f"trip {self.trip_id}: negative distance")
        if self.passengers < 1:
            raise FieldError("passengers", f"trip {self.trip_id}: passengers must be >= 1")

    @property
    def duration_s(self) -> float:
        return self.end_time - self.start_time


@dataclass(frozen=True)
class FactorBand:
    v_lo_kmh: float
    v_hi_kmh: float
    g_per_km: float


class EmissionFactorTable:
    """Speed-banded CO2e factors per vehicle class or mode.

    Bands are half-open [v_lo, v_hi) and must tile contiguously from 0 per
    class; factors are positive.
    """

    def __init__(self, bands: dict[str, list[FactorBand]]):
        self._bands = {}
        for key, rows in bands.items():
            rows = sorted(rows, key=lambda b: b.v_lo_kmh)
            edge = 0.0
            for band in rows:
                if band.v_lo_kmh != edge:
                    raise ValueError(f"{key}: band gap or overlap at {band.v_lo_kmh}")
                if band.v_hi_kmh <= band.v_lo_kmh:
                    raise ValueError(f"{key}: empty band at {band.v_lo_kmh}")
                if band.g_per_km <= 0:
                    raise ValueError(f"{key}: non-positive factor")
                edge = band.v_hi_kmh
            self._bands[key] = rows

    @classmethod
    def from_csv(cls, text: str) -> "EmissionFactorTable":
        """Load `class,v_lo_kmh,v_hi_kmh,g_per_km` rows ('#' lines skipped).

        Mile-based tables (`class,v_lo_mph,v_hi_mph,g_per_mi`) are converted
        to km on ingest.
        """
        lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
        reader = csv.DictReader(io.StringIO("\n".join(lines)))
        fields = reader.fieldnames or []
        if {"class", "v_lo_kmh", "v_hi_kmh", "g_per_km"} <= set(fields):
            miles = False
        elif {"class", "v_lo_mph", "v_hi_mph", "g_per_mi"} <= set(fields):
            miles = True
        else:
            raise ValueError(f"unrecognized factor table header: {fields}")
        bands: dict[str, list[FactorBand]] = {}
        for row in reader:
            if miles:
                band = FactorBand(
                    float(row["v_lo_mph"]) * KM_PER_MILE,
                    float(row["v_hi_mph"]) * KM_PER_MILE,
                    float(row["g_per_mi"]) / KM_PER_MILE,
                )
            else:
                band = FactorBand(
                    float(row["v_lo_kmh"]), float(row["v_hi_kmh"]), float(row["g_per_km"])
                )
            bands.setdefault(row["class"], []).append(band)
        return cls(bands)

    @classmethod
    def default(cls) -> "EmissionFactorTable":
        text = resources.files("carbonledger.data").joinpath("default_factors.csv").read_text()
        return cls.from_csv(text)

    def classes(self) -> set[str]:
        return set(self._bands)

    def factor(self, class_key: str, speed_kmh: float) -> float:
        rows = self._bands.get(class_key)
        if rows is None:
            raise MissingFactor(class_key, speed_kmh)
        for band in rows:
            if band.v_lo_kmh <= speed_kmh < band.v_hi_kmh:
                return band.g_per_km
        raise MissingFactor(class_key, speed_kmh)


@dataclass(frozen=True)
class PricePolicy:
    """CO2e price; tokens = tonnes x price x 10^4 (100 tokens = 1 cent)."""

    price_cad_per_tonne: float = 20.0

    def __post_init__(self):
        if not 0 < self.price_cad_per_tonne < math.inf:
            raise ValueError("price_cad_per_tonne must be positive and finite, "
                             f"got {self.price_cad_per_tonne}")


@dataclass(frozen=True)
class BusChargingPolicy:
    seats_per_bus: float = 50.55

    def __post_init__(self):
        if not 0 < self.seats_per_bus < math.inf:
            raise ValueError(
                f"seats_per_bus must be positive and finite, got {self.seats_per_bus}")


def average_speed(trip: TripRecord) -> float:
    """km/h from trip distance and duration."""
    return (trip.distance_m / 1000.0) / (trip.duration_s / 3600.0)


def _class_key(trip: TripRecord, table: EmissionFactorTable) -> str:
    if trip.vehicle_class and trip.vehicle_class in table.classes():
        return trip.vehicle_class
    return trip.mode.value


def trip_emissions(trip: TripRecord, table: EmissionFactorTable) -> float:
    """Total CO2e grams for the whole vehicle trip."""
    if trip.mode in ZERO_EMISSION:
        return 0.0
    if trip.distance_m == 0:
        return 0.0
    factor = table.factor(_class_key(trip, table), average_speed(trip))
    return factor * (trip.distance_m / 1000.0)


def per_user_emissions(total_g: float, trip: TripRecord,
                       bus_policy: BusChargingPolicy) -> float:
    """Grams attributed to one traveller.

    Cars and ride-hail split by occupancy; buses charge per average seat
    regardless of occupancy; walking and cycling are free.
    """
    if trip.mode in ZERO_EMISSION:
        return 0.0
    if trip.mode in PER_SEAT_MODES:
        return total_g / bus_policy.seats_per_bus
    return total_g / trip.passengers


def tokens_for_emissions(grams: float, price: PricePolicy) -> TokenAmount:
    """Convert CO2e grams to tokens at the configured price.

    centi-tokens = grams x CAD/tonne exactly; half-even at the boundary.
    """
    if grams < 0:
        raise ValueError("grams must be non-negative")
    try:
        centi = (Decimal(str(grams)) * Decimal(str(price.price_cad_per_tonne))).quantize(
            Decimal(1), rounding=ROUND_HALF_EVEN)
    except InvalidOperation as exc:  # more digits than the context's precision
        raise ValueError(f"price_cad_per_tonne {price.price_cad_per_tonne!r} prices "
                         f"{grams!r} g beyond any token amount") from exc
    return TokenAmount(int(centi))


def trip_cost(trip: TripRecord, table: EmissionFactorTable,
              bus_policy: BusChargingPolicy, price: PricePolicy
              ) -> tuple[float, TokenAmount]:
    """(grams charged to this traveller, token cost)."""
    total = trip_emissions(trip, table)
    grams_user = per_user_emissions(total, trip, bus_policy)
    return grams_user, tokens_for_emissions(grams_user, price)
