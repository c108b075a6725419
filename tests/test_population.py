"""Population loading, rejects reporting, synthetic generation."""

import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from carbonledger.emissions import Mode
from carbonledger.population import (
    DanglingUserRef,
    PERSONS_HEADER,
    RejectedRow,
    SchemaError,
    TRIPS_HEADER,
    _cumulative,
    _draw,
    generate_synthetic,
    load_population,
    load_profile,
    write_population,
)
from carbonledger.simulator import child_seed

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


@pytest.mark.parametrize("which", ["persons", "trips"])
def test_nul_byte_raises_schema_error(tmp_path, which):
    # the csv module reads a NUL from Python 3.11 on and refuses it before
    p, t = write(tmp_path, **{which: {"persons": PERSONS_CSV, "trips": TRIPS_CSV}[which]
                              .replace("u1,", "u\x001,", 1)})
    with pytest.raises(SchemaError, match="NUL") as err:
        load_population(p, t)
    assert err.value.row == 2 if which == "persons" else 3


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


def test_duplicate_user_id_keeps_the_first_row(tmp_path):
    persons = PERSONS_CSV + ("u1,60_plus,male,unemployed,none,none,true,1,0\n"
                             "u2,18_24,female,part_time,none,none,false,3,1\n")
    loaded, trips, rejects = load_population(*write(tmp_path, persons=persons))
    assert [(p.user_id, p.age_band.value) for p in loaded] == [
        ("u1", "25_39"), ("u2", "under_18")]
    assert len(trips) == 2
    assert rejects == [
        RejectedRow("persons", 4, "user_id", "duplicate user_id 'u1', first on row 2"),
        RejectedRow("persons", 5, "user_id", "duplicate user_id 'u2', first on row 3")]


def test_rejected_row_does_not_claim_its_user_id(tmp_path):
    persons = PERSONS_CSV + ("u3,elderly,male,unemployed,none,none,true,1,0\n"
                             "u3,60_plus,male,unemployed,none,none,true,1,0\n")
    loaded, _, rejects = load_population(*write(tmp_path, persons=persons))
    assert [p.user_id for p in loaded] == ["u1", "u2", "u3"]
    assert [(r.row, r.column) for r in rejects] == [(4, "age_band")]


# one bad value in every parsed column, each `TripRecord` check, two bad
# values in one row (the first column in file order is named) and a
# repeated trip id; the reject list was recorded from the loader that parsed
# each row through a dict of named fields
PARITY_PERSONS = [
    "u1,25_39,female,full_time,professional_mgmt_tech,none,true,2,1",
    "u2,elderly,female,full_time,none,none,true,1,0",
    "u3,25_39,other,full_time,none,none,true,1,0",
    "u4,25_39,male,retired,none,none,true,1,0",
    "u5,25_39,male,full_time,pilot,none,true,1,0",
    "u6,25_39,male,full_time,none,sometimes,true,1,0",
    "u7,25_39,male,full_time,none,none,maybe,1,0",
    "u8,25_39,male,full_time,none,none,true,two,0",
    "u9,25_39,male,full_time,none,none,true,2,1.5",
    "u10,25_39,male,full_time,none,none,true,0,0",
    "u11,25_39,male,full_time,none,none,true,2,-1",
    "u12,teen,robot,full_time,none,none,true,x,y",
    "u13,,female,full_time,none,none,TRUE,3,0",
]
PARITY_TRIPS = [
    "t1,u1,car,28800,30600,9400,2,",
    "t2,u1,teleport,100,200,1000,1,",
    "t3,u1,car,morning,200,1000,1,",
    "t4,u1,car,100,noon,1000,1,",
    "t5,u1,car,100,200,far,1,",
    "t6,u1,car,100,200,1000,one,",
    "t7,u1,car,500,400,1000,1,",
    "t8,u1,car,100,200,-5,1,",
    "t9,u1,car,100,200,1000,0,",
    "t10,u1,car,100,100,-1,0,",
    "t11,u1,hover,x,y,z,w,",
    "t1,u1,bus,100,200,1000,1,",
    "t12,u1,bus,100,200,1e3,2,compact",
]
PARITY_REJECTS = [
    ("persons", 3, "age_band", "'elderly' is not a valid AgeBand"),
    ("persons", 4, "gender", "'other' is not a valid Gender"),
    ("persons", 5, "employment", "'retired' is not a valid Employment"),
    ("persons", 6, "occupation", "'pilot' is not a valid Occupation"),
    ("persons", 7, "student_status", "'sometimes' is not a valid StudentStatus"),
    ("persons", 8, "has_licence", "not a boolean: 'maybe'"),
    ("persons", 9, "household_size", "invalid literal for int() with base 10: 'two'"),
    ("persons", 10, "household_cars", "invalid literal for int() with base 10: '1.5'"),
    ("persons", 11, "household_size", "household_size >= 1 and cars >= 0 required"),
    ("persons", 12, "household_cars", "household_size >= 1 and cars >= 0 required"),
    ("persons", 13, "age_band", "'teen' is not a valid AgeBand"),
    ("persons", 14, "age_band", "'' is not a valid AgeBand"),
    ("trips", 3, "mode", "'teleport' is not a valid Mode"),
    ("trips", 4, "start_time", "could not convert string to float: 'morning'"),
    ("trips", 5, "end_time", "could not convert string to float: 'noon'"),
    ("trips", 6, "distance_m", "could not convert string to float: 'far'"),
    ("trips", 7, "passengers", "invalid literal for int() with base 10: 'one'"),
    ("trips", 8, "end_time", "trip t7: end_time must exceed start_time"),
    ("trips", 9, "distance_m", "trip t8: negative distance"),
    ("trips", 10, "passengers", "trip t9: passengers must be >= 1"),
    ("trips", 11, "end_time", "trip t10: end_time must exceed start_time"),
    ("trips", 12, "mode", "'hover' is not a valid Mode"),
    ("trips", 13, "trip_id", "duplicate trip_id 't1', first on row 2"),
]


def test_every_column_rejects_with_its_name_and_reason(tmp_path):
    persons = ",".join(PERSONS_HEADER) + "\n" + "\n".join(PARITY_PERSONS) + "\n"
    trips = ",".join(TRIPS_HEADER) + "\n" + "\n".join(PARITY_TRIPS) + "\n"
    loaded, kept, rejects = load_population(*write(tmp_path, persons=persons, trips=trips))
    assert [p.user_id for p in loaded] == ["u1"]
    assert [(t.trip_id, t.distance_m, t.vehicle_class) for t in kept] == [
        ("t12", 1000.0, "compact"), ("t1", 9400.0, None)]
    assert [(r.file, r.row, r.column, r.reason) for r in rejects] == PARITY_REJECTS


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


weights = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.integers(0, 50)),
                  min_size=1, max_size=24)


@settings(max_examples=300, deadline=None)
@given(weights, st.integers(0, 2**64))
def test_table_draw_is_what_random_choices_draws(w, seed):
    labels = [f"l{i}" for i in range(len(w))]
    ours, theirs = random.Random(seed), random.Random(seed)
    try:
        table = _cumulative(labels, w)
    except ValueError as exc:  # a zero total: `choices` refuses it alike
        with pytest.raises(ValueError, match=str(exc)):
            theirs.choices(labels, weights=w, k=1)
        return
    for _ in range(5):
        assert _draw(ours.random, table) == theirs.choices(labels, weights=w, k=1)[0]
    assert ours.getstate() == theirs.getstate()


def test_bad_distribution_raises_only_when_first_drawn():
    profile = load_profile()
    # nobody is unemployed at seed 7 with 3 users, so this table is never built
    profile["trip_count_shares_by_employment"]["unemployed"] = [0, 0]
    persons, _ = generate_synthetic(7, 3, profile)
    assert all(p.employment.value != "unemployed" for p in persons)
    profile["gender_shares"] = {"male": 0.0, "female": 0.0}
    with pytest.raises(ValueError, match="greater than zero"):
        generate_synthetic(7, 3, profile)


# sha256(persons.csv + NUL + trips.csv) of `write_population(generate_synthetic(
# seed, n))`, recorded from the generator that called `random.choices` per draw
POPULATION_DIGESTS = {
    (child_seed(7, "population"), 3186):
        "046b3b1237a49062264dee61ee2e88750ec5fc3bb38aaa781dc4538e472e58b3",
    (1, 5): "ea64a3d8a892e2875c4b9cc98d637f3a66ef25ae7fe5b91f32bf4858575e2bae",
    (123, 800): "c8fa2e3dd82bfc12639fdcad43f297b35c8a0177903ce89d1e8380aa38ad0db7",
}


@pytest.mark.parametrize("seed,n_users", sorted(POPULATION_DIGESTS))
def test_population_bytes_match_pinned_digest(seed, n_users, tmp_path):
    persons, trips = tmp_path / "persons.csv", tmp_path / "trips.csv"
    write_population(*generate_synthetic(seed, n_users), persons, trips)
    digest = hashlib.sha256(persons.read_bytes() + b"\0" + trips.read_bytes())
    assert digest.hexdigest() == POPULATION_DIGESTS[seed, n_users]


def test_forced_walk_profile_produces_only_walks():
    profile = load_profile()
    for age in profile["mode_shares_by_age"]:
        profile["mode_shares_by_age"][age] = {"walk": 1.0}
    persons, trips = generate_synthetic(7, 60, profile)
    assert trips and all(t.mode is Mode.WALK for t in trips)


@pytest.mark.parametrize("edit, detail", [
    (lambda p: p["mode_shares_by_age"].pop("under_18"), "mode_shares_by_age['under_18']"),
    (lambda p: p["licence_rate_by_age"].pop("60_plus"), "licence_rate_by_age['60_plus']"),
    (lambda p: p["trip_count_shares_by_employment"].pop("unemployed"),
     "trip_count_shares_by_employment['unemployed']"),
    (lambda p: p["speed_kmh_by_mode"].pop("school_bus"), "speed_kmh_by_mode['school_bus']"),
    (lambda p: p["distance_m_lognormal_by_mode"].pop("walk"),
     "distance_m_lognormal_by_mode['walk']"),
    (lambda p: p["mode_shares_by_age"].update({"18_24": 3}), "malformed"),
    (lambda p: p.update(employment_shares_by_age=[]), "malformed"),
])
def test_profile_missing_nested_table_rejected_at_load(tmp_path, edit, detail):
    # whatever the population size: a table only some draws reach is checked too
    profile = load_profile()
    edit(profile)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    with pytest.raises(ValueError, match=re.escape(detail)):
        load_profile(path)


def test_profile_missing_key_rejected(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text('{"age_shares": {}}')
    with pytest.raises(ValueError):
        load_profile(path)
