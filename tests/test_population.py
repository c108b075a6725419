"""Population loading, rejects reporting, synthetic generation."""

import pytest

from carbonledger.emissions import Mode
from carbonledger.population import (
    DanglingUserRef,
    RejectedRow,
    SchemaError,
    TRIPS_HEADER,
    generate_synthetic,
    load_population,
    load_profile,
    write_population,
)

PERSONS_CSV = """user_id,age_band,gender,employment,occupation,student_status,has_licence,household_size,household_cars
u1,25_39,female,full_time,professional_mgmt_tech,none,true,2,1
u2,under_18,male,unemployed,none,full_time,false,4,2
"""

TRIPS_CSV = """trip_id,user_id,mode,start_time,end_time,distance_m,passengers,vehicle_class
t2,u2,school_bus,29000,30800,5200,1,
t1,u1,car,28800,30600,9400,2,
"""


def write(tmp_path, persons=PERSONS_CSV, trips=TRIPS_CSV):
    p = tmp_path / "persons.csv"
    t = tmp_path / "trips.csv"
    p.write_text(persons)
    t.write_text(trips)
    return p, t


def test_load_sorts_trips_and_keeps_everyone(tmp_path):
    persons, trips, rejects = load_population(*write(tmp_path))
    assert [p.user_id for p in persons] == ["u1", "u2"]
    assert [t.trip_id for t in trips] == ["t1", "t2"]  # start-time order
    assert rejects == []
    assert trips[0].mode is Mode.CAR


def test_header_mismatch_raises_schema_error(tmp_path):
    bad = PERSONS_CSV.replace("age_band", "age")
    p, t = write(tmp_path, persons=bad)
    with pytest.raises(SchemaError) as err:
        load_population(p, t)
    assert err.value.row == 0


def test_short_row_raises_schema_error(tmp_path):
    p, t = write(tmp_path, trips=TRIPS_CSV + "t3,u1,car\n")
    with pytest.raises(SchemaError) as err:
        load_population(p, t)
    assert err.value.row == 4


def test_dangling_user_reference_raises_with_row(tmp_path):
    p, t = write(tmp_path, trips=TRIPS_CSV + "t3,ghost,car,100,200,1000,1,\n")
    with pytest.raises(DanglingUserRef) as err:
        load_population(p, t)
    assert err.value.row == 4
    assert err.value.user_id == "ghost"


def test_bad_values_collected_not_dropped_silently(tmp_path):
    bad_trips = TRIPS_CSV + "t3,u1,teleport,100,200,1000,1,\nt4,u1,car,500,400,1000,1,\n"
    p, t = write(tmp_path, trips=bad_trips)
    persons, trips, rejects = load_population(p, t)
    assert len(trips) == 2
    assert len(rejects) == 2
    assert {r.row for r in rejects} == {4, 5}
    assert all(r.file == "trips" for r in rejects)


def test_bad_enum_values_keep_their_reject_reasons(tmp_path):
    persons = PERSONS_CSV + ("u3,elderly,female,full_time,none,none,true,1,0\n"
                             "u4,25_39,male,full_time,none,none,true,two,0\n"
                             "u5,25_39,male,full_time,none,none,true,2,-1\n")
    trips = TRIPS_CSV + ("t3,u1,teleport,100,200,1000,1,\n"
                         "t4,u1,car,500,400,1000,1,\n")
    _, _, rejects = load_population(*write(tmp_path, persons=persons, trips=trips))
    assert rejects == [
        RejectedRow("persons", 4, "age_band", "'elderly' is not a valid AgeBand"),
        RejectedRow("persons", 5, "household_size",
                    "invalid literal for int() with base 10: 'two'"),
        RejectedRow("persons", 6, "household_cars", "household_size >= 1 and cars >= 0 required"),
        RejectedRow("trips", 4, "mode", "'teleport' is not a valid Mode"),
        RejectedRow("trips", 5, "end_time", "trip t4: end_time must exceed start_time"),
    ]


def test_duplicate_trip_id_keeps_the_first_row(tmp_path):
    trips = TRIPS_CSV + "t1,u2,bus,40000,41000,3000,1,\nt1,u1,car,50000,51000,4000,1,\n"
    _, loaded, rejects = load_population(*write(tmp_path, trips=trips))
    assert [(t.trip_id, t.user_id, t.mode) for t in loaded] == [
        ("t1", "u1", Mode.CAR), ("t2", "u2", Mode.SCHOOL_BUS)]
    assert rejects == [
        RejectedRow("trips", row, "trip_id", "duplicate trip_id 't1', first on row 3")
        for row in (4, 5)]


def test_empty_trips_file_is_a_valid_zero_trip_day(tmp_path):
    p, t = write(tmp_path, trips=",".join(TRIPS_HEADER) + "\n")
    persons, trips, rejects = load_population(p, t)
    assert len(persons) == 2 and trips == [] and rejects == []


def test_write_load_round_trip(tmp_path):
    persons, trips = generate_synthetic(3, 40)
    write_population(persons, trips, tmp_path / "p.csv", tmp_path / "t.csv")
    persons2, trips2, rejects = load_population(tmp_path / "p.csv", tmp_path / "t.csv")
    assert rejects == []
    assert persons2 == persons
    assert [t.trip_id for t in trips2] == [t.trip_id for t in trips]


# --- synthetic generation ---


def test_same_seed_same_population():
    a = generate_synthetic(42, 100)
    b = generate_synthetic(42, 100)
    assert a == b


def test_different_seed_different_population():
    a = generate_synthetic(1, 100)
    b = generate_synthetic(2, 100)
    assert a != b


def test_every_trip_references_a_person():
    persons, trips = generate_synthetic(5, 80)
    ids = {p.user_id for p in persons}
    assert all(t.user_id in ids for t in trips)
    assert all(t.end_time > t.start_time for t in trips)
    assert all(0 <= t.start_time < 86_400 and t.end_time < 86_400 for t in trips)


def test_under_18_school_bus_share_matches_profile_target():
    # profile pins the school-bus share of under-18 trips at 39.84%
    persons, trips = generate_synthetic(11, 3186)
    minors = {p.user_id for p in persons if p.age_band.value == "under_18"}
    minor_trips = [t for t in trips if t.user_id in minors]
    share = sum(1 for t in minor_trips if t.mode is Mode.SCHOOL_BUS) / len(minor_trips)
    assert abs(share - 0.3984) < 0.05


def test_seniors_overwhelmingly_drive():
    persons, trips = generate_synthetic(11, 3186)
    seniors = {p.user_id for p in persons if p.age_band.value == "60_plus"}
    senior_trips = [t for t in trips if t.user_id in seniors]
    share = sum(1 for t in senior_trips if t.mode is Mode.CAR) / len(senior_trips)
    assert abs(share - 0.9839) < 0.05


def test_forced_walk_profile_produces_only_walks():
    profile = load_profile()
    for age in profile["mode_shares_by_age"]:
        profile["mode_shares_by_age"][age] = {"walk": 1.0}
    persons, trips = generate_synthetic(7, 60, profile)
    assert trips and all(t.mode is Mode.WALK for t in trips)


def test_profile_missing_key_rejected(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text('{"age_shares": {}}')
    with pytest.raises(ValueError):
        load_profile(path)
