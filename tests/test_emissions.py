"""Trip emission and token conversion pipeline."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from carbonledger.emissions import (
    KM_PER_MILE,
    BusChargingPolicy,
    EmissionFactorTable,
    MissingFactor,
    Mode,
    PricePolicy,
    TripRecord,
    average_speed,
    per_user_emissions,
    tokens_for_emissions,
    trip_cost,
    trip_emissions,
)
from carbonledger.tokens import TokenAmount

PRICE = PricePolicy(20.0)
BUS = BusChargingPolicy(seats_per_bus=50.55)

FLAT_TABLE = EmissionFactorTable.from_csv(
    "class,v_lo_kmh,v_hi_kmh,g_per_km\n"
    "car,0,40,180\n"
    "car,40,200,160\n"
    "bus,0,200,1000\n"
    "school_bus,0,200,900\n"
    "ride_hail,0,200,180\n"
)


def trip(mode, distance_m, duration_s=1800.0, passengers=1, **kw):
    return TripRecord("t1", "u1", mode, 28800.0, 28800.0 + duration_s,
                      distance_m, passengers, **kw)


# --- speed ---


def test_speed_ten_km_in_half_hour():
    assert average_speed(trip(Mode.CAR, 10_000, 1800)) == pytest.approx(20.0)


def test_speed_zero_distance():
    assert average_speed(trip(Mode.WALK, 0, 600)) == 0.0


def test_speed_survey_scale_value():
    # 14,248 m in 40 min; oracle: (14.248 km) / (2/3 h)
    got = average_speed(trip(Mode.CAR, 14_248, 2400))
    assert got == pytest.approx(14.248 / (2 / 3))
    assert got == pytest.approx(21.372)


def test_non_positive_duration_rejected_at_construction():
    with pytest.raises(ValueError):
        trip(Mode.CAR, 1000, 0)
    with pytest.raises(ValueError):
        trip(Mode.CAR, 1000, -60)


# --- trip emissions ---


def test_walk_and_bicycle_always_zero():
    assert trip_emissions(trip(Mode.WALK, 123_456), FLAT_TABLE) == 0.0
    assert trip_emissions(trip(Mode.BICYCLE, 9_999), FLAT_TABLE) == 0.0


def test_car_factor_times_distance():
    # 10 km at 20 km/h sits in the 180 g/km band
    assert trip_emissions(trip(Mode.CAR, 10_000, 1800), FLAT_TABLE) == pytest.approx(1800.0)


def test_band_boundary_is_half_open():
    table = EmissionFactorTable.from_csv(
        "class,v_lo_kmh,v_hi_kmh,g_per_km\ncar,0,20,300\ncar,20,200,100\n"
    )
    # exactly 20 km/h falls in the upper band
    assert table.factor("car", 20.0) == 100
    assert table.factor("car", 19.999) == 300


def test_missing_factor_names_class_and_speed():
    with pytest.raises(MissingFactor) as err:
        FLAT_TABLE.factor("tractor", 10.0)
    assert err.value.class_key == "tractor"


def test_vehicle_class_override_beats_mode():
    table = EmissionFactorTable.from_csv(
        "class,v_lo_kmh,v_hi_kmh,g_per_km\ncar,0,200,200\nsuv,0,200,300\n"
    )
    t = trip(Mode.CAR, 10_000, 1800, vehicle_class="suv")
    assert trip_emissions(t, table) == pytest.approx(3000.0)


def test_table_validation_rejects_gaps_and_nonpositive():
    with pytest.raises(ValueError):
        EmissionFactorTable.from_csv(
            "class,v_lo_kmh,v_hi_kmh,g_per_km\ncar,0,20,100\ncar,30,200,100\n"
        )
    with pytest.raises(ValueError):
        EmissionFactorTable.from_csv(
            "class,v_lo_kmh,v_hi_kmh,g_per_km\ncar,0,200,0\n"
        )


# --- per-user division ---


def test_car_splits_by_occupancy():
    assert per_user_emissions(2400.0, trip(Mode.CAR, 1, passengers=2), BUS) == 1200.0


def test_bus_charges_per_average_seat():
    # 101,100 g over 50.55 seats
    assert per_user_emissions(101_100.0, trip(Mode.BUS, 1), BUS) == pytest.approx(2000.0)


def test_ride_hail_single_passenger_identity():
    assert per_user_emissions(1800.0, trip(Mode.RIDE_HAIL, 1, passengers=1), BUS) == 1800.0


def test_walk_user_share_is_zero():
    assert per_user_emissions(0.0, trip(Mode.WALK, 1), BUS) == 0.0


# --- token conversion ---


def test_zero_grams_zero_tokens():
    assert tokens_for_emissions(0.0, PRICE) == TokenAmount.zero()


def test_kilogram_anchor():
    # 0.001 t x 20 CAD/t x 10^4 tokens/CAD
    assert tokens_for_emissions(1000.0, PRICE) == TokenAmount.parse("200.00")


def test_tonne_anchor_exact():
    assert tokens_for_emissions(1_000_000.0, PRICE) == TokenAmount.parse("200000.00")


def test_daily_budget_inverse():
    # 493.79 tokens correspond to 2,468.95 g at 20 CAD/t
    assert tokens_for_emissions(2468.95, PRICE) == TokenAmount.parse("493.79")


def test_conversion_round_trips_to_cad():
    grams = 1534.217
    tokens = tokens_for_emissions(grams, PRICE)
    expected_cad = grams * 20.0 / 1e6
    cad = Fraction(tokens.centi, 1_000_000)  # 10^6 centi-tokens to the CAD
    assert abs(float(cad) - expected_cad) <= 0.5e-6  # half a centi-token


@given(st.floats(min_value=0, max_value=1e7, allow_nan=False))
def test_monotone_in_grams(g):
    assert tokens_for_emissions(g, PRICE).centi <= tokens_for_emissions(g + 1.0, PRICE).centi


@given(st.floats(min_value=0.01, max_value=1e5, allow_nan=False))
def test_linear_in_price(g):
    single = tokens_for_emissions(g, PricePolicy(10.0))
    double = tokens_for_emissions(g, PricePolicy(20.0))
    assert abs(double.centi - 2 * single.centi) <= 1  # one rounding step


# --- mile-based ingest ---


def test_mile_table_converted_on_ingest():
    km_table = EmissionFactorTable.from_csv(
        "class,v_lo_kmh,v_hi_kmh,g_per_km\ncar,0,160.9344,100\n"
    )
    mi_table = EmissionFactorTable.from_csv(
        "class,v_lo_mph,v_hi_mph,g_per_mi\ncar,0,100,160.9344\n"
    )
    assert mi_table.factor("car", 50.0) == pytest.approx(km_table.factor("car", 50.0))


def test_mile_km_round_trip_idempotent():
    g_per_mi = 371.2
    there = g_per_mi / KM_PER_MILE
    back = there * KM_PER_MILE
    assert abs(back - g_per_mi) / g_per_mi < 1e-9


# --- full pipeline ---


def test_walk_trip_costs_nothing():
    assert trip_cost(trip(Mode.WALK, 2000), FLAT_TABLE, BUS, PRICE) == (0.0, TokenAmount.zero())


def test_car_trip_reproducing_mode_average():
    # 206 tokens at 20 CAD/t means 1,030 g for the traveller: a 10.3 km solo
    # trip in a 100 g/km band
    table = EmissionFactorTable.from_csv(
        "class,v_lo_kmh,v_hi_kmh,g_per_km\ncar,0,200,100\n"
    )
    grams, tokens = trip_cost(trip(Mode.CAR, 10_300, 1800, passengers=1),
                              table, BUS, PRICE)
    assert grams == pytest.approx(1030.0)
    assert tokens == TokenAmount.parse("206.00")


def test_bus_trip_reproducing_per_seat_average():
    # 47 tokens per seat means 235 g/seat: 11,879.25 g over 50.55 seats
    table = EmissionFactorTable.from_csv(
        "class,v_lo_kmh,v_hi_kmh,g_per_km\nbus,0,200,1187.925\n"
    )
    grams, tokens = trip_cost(trip(Mode.BUS, 10_000, 1800), table, BUS, PRICE)
    assert grams == pytest.approx(235.0)
    assert tokens == TokenAmount.parse("47.00")


def test_default_table_loads_and_covers_all_motorized_modes():
    table = EmissionFactorTable.default()
    for mode in ("car", "ride_hail", "bus", "school_bus"):
        assert table.factor(mode, 25.0) > 0
