"""CLI subcommands, exit codes, machine-readable errors."""

import collections
import contextlib
import hashlib
import io
import json
import random
import shutil
import sys
import tempfile
import types
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from carbonledger import ledger as ledger_mod, simulator
from carbonledger.cli import main
from carbonledger.ledger import ParseError, TxKind, import_chain, verify_chain
from carbonledger.tokens import TokenAmount


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def base_config(tmp_path, **extra):
    cfg = {"seed": 7, "synthetic_users": 20, "out_dir": str(tmp_path / "out")}
    cfg.update(extra)
    path = tmp_path / "day.json"
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_is_deterministic(tmp_path, capsys):
    cfg = base_config(tmp_path)
    code1, out1, _ = run_cli(capsys, "simulate", "-c", str(cfg), "--seed", "7")
    code2, out2, _ = run_cli(capsys, "simulate", "-c", str(cfg), "--seed", "7")
    assert code1 == code2 == 0
    head1 = out1.split("head=")[1].strip()
    head2 = out2.split("head=")[1].strip()
    assert head1 == head2
    assert "throughput=1.00" in out1


def test_simulate_missing_trips_file_exits_2_with_json(tmp_path, capsys):
    cfg = base_config(tmp_path, persons_file=str(tmp_path / "nope_p.csv"),
                      trips_file=str(tmp_path / "nope_t.csv"))
    code, _, err = run_cli(capsys, "simulate", "-c", str(cfg))
    assert code == 2
    payload = json.loads(err.strip())
    assert "error" in payload and "detail" in payload


@pytest.mark.parametrize("config, named", [
    ({"n_active_nodes": "4"}, "n_active_nodes"),
    ({"delays_ms": 5}, "delays_ms"),
    ({"synthetic_users": 3.5}, "synthetic_users"),
    ({"price_cad_per_tonne": "20"}, "price_cad_per_tonne"),
    ({"unsafe_faults": 1}, "unsafe_faults"),
    ([1], "JSON object"),
    ({"n_active_nodes": 0, "synthetic_users": 5}, "n_active_nodes"),
    ({"max_round_retries": 0, "synthetic_users": 5}, "max_round_retries"),
    ({"batch_window": 0, "synthetic_users": 5}, "batch_window"),
    ({"initial_pool_tokens": "-1.00", "synthetic_users": 5}, "initial_pool_tokens"),
    ({"cap_tokens": "-0.01", "synthetic_users": 5}, "cap_tokens"),
    ({"cap_mode": "explicit"}, "cap_mode"),
    ({"persons_file": "persons.csv"}, "field 'trips_file'"),
    ({"trips_file": "trips.csv"}, "field 'persons_file'"),
    # token fields are written as the ledger export writes amounts
    ({"cap_tokens": "5.005", "synthetic_users": 5}, "cap_tokens"),
    ({"cap_tokens": "1e3", "synthetic_users": 5}, "cap_tokens"),
    ({"initial_pool_tokens": "abc", "synthetic_users": 5}, "initial_pool_tokens"),
])
def test_simulate_mistyped_config_exits_2(tmp_path, capsys, config, named):
    path = tmp_path / "day.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "simulate", "-c", str(path), "--out", str(tmp_path / "out"))
    assert code == 2
    payload = json.loads(err.strip())
    assert payload["error"] == "ValueError" and named in payload["detail"]


def test_simulate_with_byzantine_flag(tmp_path, capsys):
    cfg = base_config(tmp_path)
    code, out, _ = run_cli(capsys, "simulate", "-c", str(cfg),
                           "--active-nodes", "4", "--byzantine", "1:equivocate")
    assert code == 0
    assert "throughput=1.00" in out


def test_too_many_byzantine_needs_unsafe_flag(tmp_path, capsys):
    cfg = base_config(tmp_path)
    code, _, err = run_cli(capsys, "simulate", "-c", str(cfg),
                           "--byzantine", "2:silent")
    assert code == 2
    assert json.loads(err.strip())["error"] == "UnsafeFaultConfig"
    code2, out, _ = run_cli(capsys, "simulate", "-c", str(cfg),
                            "--byzantine", "2:silent", "--unsafe-faults")
    assert code2 == 0
    assert "throughput=0.00" in out or "throughput=n/a" in out


def test_simulate_market_error_exits_2_with_json(tmp_path, capsys):
    # an empty market pool cannot cover the day's first deficit purchase
    cfg = base_config(tmp_path, initial_pool_tokens="0.00")
    code, _, err = run_cli(capsys, "simulate", "-c", str(cfg))
    assert code == 2
    assert json.loads(err.strip())["error"] == "MarketPoolExhausted"
    # the chain committed before the abort is dumped, and it verifies
    partial = tmp_path / "out" / "ledger.partial.ndjson"
    assert partial.exists()
    code, out, _ = run_cli(capsys, "verify", str(partial))
    assert code == 0 and out.startswith("ok:")


def test_operator_pays_remainder_completes_a_day(tmp_path, capsys):
    # the default pool covers the cap plus the operator's bus remainders
    cfg = base_config(tmp_path, operator_pays_remainder=True)
    code, out, _ = run_cli(capsys, "simulate", "-c", str(cfg))
    assert code == 0
    assert "throughput=1.00" in out
    code, _, _ = run_cli(capsys, "verify", str(tmp_path / "out" / "ledger.ndjson"))
    assert code == 0
    chain = (tmp_path / "out" / "ledger.ndjson").read_text()
    assert '"kind":"operator_settlement"' in chain


def one_user_population(tmp_path, capsys, trip_rows, n_users=1):
    """A synthetic population whose only trips are `trip_rows`, all of its
    first user."""
    run_cli(capsys, "synth", "--seed", "3", "--n-users", str(n_users),
            "--out", str(tmp_path / "pop"))
    persons = tmp_path / "pop" / "persons.csv"
    user_id = persons.read_text().splitlines()[1].split(",")[0]
    trips = tmp_path / "pop" / "trips.csv"
    header = trips.read_text().splitlines()[0]
    trips.write_text("\n".join([header] + [row.format(user=user_id) for row in trip_rows]) + "\n")
    return persons, trips


# a car trip of 4,000 m in 60 s (240 km/h) lies outside every speed band
TOO_FAST = "t-fast,{user},car,3600.000,3660.000,4000.0,1,"


def test_simulate_emission_error_exits_2_with_json(tmp_path, capsys):
    persons, trips = one_user_population(tmp_path, capsys, [TOO_FAST])
    cfg = base_config(tmp_path, persons_file=str(persons), trips_file=str(trips))
    code, _, err = run_cli(capsys, "simulate", "-c", str(cfg))
    assert code == 2
    assert json.loads(err.strip())["error"] == "MissingFactor"


def test_duplicate_trip_id_is_rejected_and_the_day_completes(tmp_path, capsys):
    # the day's cap counts one t-dup trip, so settling both rows would drain
    # the market pool
    persons, trips = one_user_population(tmp_path, capsys, [
        "t-dup,{user},car,3600.000,4200.000,4000.0,1,",
        "t-dup,{user},car,7200.000,8400.000,8000.0,1,"], n_users=2)
    cfg = base_config(tmp_path, persons_file=str(persons), trips_file=str(trips))
    code, out, _ = run_cli(capsys, "simulate", "-c", str(cfg))
    assert code == 0
    assert "users=2 trips=1 " in out
    rejects = (tmp_path / "out" / "rejects.csv").read_text().splitlines()
    assert rejects == ["file,row,column,reason",
                       "trips,3,trip_id,\"duplicate trip_id 't-dup', first on row 2\""]


def test_duplicate_user_id_is_rejected_and_granted_once(tmp_path, capsys):
    run_cli(capsys, "synth", "--seed", "3", "--n-users", "2", "--out", str(tmp_path / "pop"))
    persons = tmp_path / "pop" / "persons.csv"
    lines = persons.read_text().splitlines()
    persons.write_text("\n".join(lines + [lines[1]]) + "\n")
    cfg = base_config(tmp_path, persons_file=str(persons),
                      trips_file=str(tmp_path / "pop" / "trips.csv"))
    code, out, _ = run_cli(capsys, "simulate", "-c", str(cfg))
    assert code == 0
    assert "users=2 " in out
    rejects = (tmp_path / "out" / "rejects.csv").read_text().splitlines()
    assert rejects == ["file,row,column,reason",
                       "persons,4,user_id,\"duplicate user_id 'u00000', first on row 2\""]
    genesis = import_chain((tmp_path / "out" / "ledger.ndjson").read_text()).chain[0]
    grants = [tx.receiver for tx in genesis.txs if tx.kind is TxKind.ALLOCATION]
    assert len(grants) == len(set(grants)) == 3  # two users and the market pool


def test_rejected_person_rejects_their_trips_and_the_day_completes(tmp_path, capsys):
    run_cli(capsys, "synth", "--seed", "3", "--n-users", "2", "--out", str(tmp_path / "pop"))
    persons, trips = tmp_path / "pop" / "persons.csv", tmp_path / "pop" / "trips.csv"
    lines = persons.read_text().splitlines()
    user_id, _, rest = lines[1].split(",", 2)
    persons.write_text("\n".join([lines[0], f"{user_id},elderly,{rest}"] + lines[2:]) + "\n")
    rows = [row for row, line in enumerate(trips.read_text().splitlines()[1:], start=2)
            if line.split(",")[1] == user_id]
    cfg = base_config(tmp_path, persons_file=str(persons), trips_file=str(trips))
    code, out, _ = run_cli(capsys, "simulate", "-c", str(cfg))
    assert code == 0
    assert "users=1 " in out
    rejects = (tmp_path / "out" / "rejects.csv").read_text().splitlines()
    assert rows and rejects == [
        "file,row,column,reason", "persons,2,age_band,\"'elderly' is not a valid AgeBand\""
    ] + [f"trips,{row},user_id,\"user '{user_id}' was rejected on persons row 2\""
         for row in rows]


def test_verify_clean_chain(tmp_path, capsys):
    cfg = base_config(tmp_path)
    run_cli(capsys, "simulate", "-c", str(cfg))
    code, out, _ = run_cli(capsys, "verify", str(tmp_path / "out" / "ledger.ndjson"))
    assert code == 0
    assert out.startswith("ok:")


def test_verify_detects_one_byte_mutation(tmp_path, capsys):
    cfg = base_config(tmp_path)
    run_cli(capsys, "simulate", "-c", str(cfg))
    ledger_file = tmp_path / "out" / "ledger.ndjson"
    lines = ledger_file.read_text().splitlines()
    target = len(lines) // 2
    obj = json.loads(lines[target])
    amount = obj["txs"][0]["amount"]
    digit = "9" if amount[0] != "9" else "8"
    obj["txs"][0]["amount"] = digit + amount[1:]
    lines[target] = json.dumps(obj, separators=(",", ":"))
    ledger_file.write_text("\n".join(lines) + "\n")

    code, out, _ = run_cli(capsys, "verify", str(ledger_file))
    assert code == 1
    assert f"height {target}" in out


def test_verify_garbage_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "truncated.ndjson"
    bad.write_text('{"height": 0, "prev_hash": "00", "trunc')
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2
    assert json.loads(err.strip())["error"] == "ParseError"


DEEP_JSON = "[" * 10_000 + "]" * 10_000


@pytest.mark.parametrize("entry", ["verify", "inspect", "report", "simulate -c",
                                   "simulate --profile", "synth --profile"])
def test_json_nested_too_deep_exits_2(tmp_path, capsys, entry):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    if entry == "report":
        run_cli(capsys, "simulate", "-c", str(base_config(tmp_path)))
        (tmp_path / "out" / "manifest.json").write_text(DEEP_JSON)
        argv = ["report", str(tmp_path / "out")]
    elif entry == "simulate --profile":
        argv = ["simulate", "-c", str(base_config(tmp_path)), "--profile", str(deep)]
    elif entry == "synth --profile":
        argv = ["synth", "--profile", str(deep), "--out", str(tmp_path / "pop")]
    else:
        argv = [*entry.split(), str(deep)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    payload = json.loads(err.strip())
    assert set(payload) == {"error", "detail"}
    if entry in ("verify", "inspect"):
        assert payload["error"] == "ParseError" and payload["detail"].startswith("line 1:")


@pytest.mark.parametrize("command", ["verify", "inspect"])
def test_non_utf8_ledger_file_exits_2(tmp_path, capsys, command):
    bad = tmp_path / "bad.ndjson"
    bad.write_bytes(b"\xff\xfe")
    code, _, err = run_cli(capsys, command, str(bad))
    assert code == 2
    assert json.loads(err.strip())["error"] == "ParseError"


def test_non_utf8_bytes_deep_in_a_ledger_file_exit_2(tmp_path, capsys):
    # the file is read in buffer-sized chunks, so the bad bytes are decoded
    # only after many good lines have been parsed
    run_cli(capsys, "simulate", "-c", str(base_config(tmp_path)))
    bad = tmp_path / "out" / "ledger.ndjson"
    good = bad.read_bytes()
    assert len(good) > 4 * io.DEFAULT_BUFFER_SIZE
    bad.write_bytes(good + b"\xff\n")
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2
    payload = json.loads(err.strip())
    assert payload["error"] == "ParseError" and str(bad) in payload["detail"]


def test_unicode_line_break_inside_a_string_splits_the_line(tmp_path, capsys):
    # U+2028 is valid raw inside a JSON string, but it ends a line for
    # `str.splitlines`, so the block's line is cut in two and fails to parse
    run_cli(capsys, "simulate", "-c", str(base_config(tmp_path)))
    ledger_file = tmp_path / "out" / "ledger.ndjson"
    lines = ledger_file.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["txs"][0]["description"] += "\u2028"
    lines[1] = json.dumps(obj, separators=(",", ":"), ensure_ascii=False)
    ledger_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(ledger_file))
    assert code == 2
    assert json.loads(err.strip())["detail"].startswith("line 2: ")


def retype_description(ledger_file):
    # a well-formed export whose first payment carries a number, not a string
    lines = ledger_file.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["txs"][0]["description"] = 7
    lines[1] = json.dumps(obj, separators=(",", ":"))
    ledger_file.write_text("\n".join(lines) + "\n")


def test_verify_mistyped_field_exits_2(tmp_path, capsys):
    run_cli(capsys, "simulate", "-c", str(base_config(tmp_path)))
    ledger_file = tmp_path / "out" / "ledger.ndjson"
    retype_description(ledger_file)
    code, _, err = run_cli(capsys, "verify", str(ledger_file))
    assert code == 2
    payload = json.loads(err.strip())
    assert payload["error"] == "ParseError" and payload["detail"].startswith("line 2:")


def test_report_mistyped_field_exits_2(tmp_path, capsys):
    run_cli(capsys, "simulate", "-c", str(base_config(tmp_path)))
    retype_description(tmp_path / "out" / "ledger.ndjson")
    code, _, err = run_cli(capsys, "report", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(err.strip())["error"] == "ParseError"


def test_verify_rejects_forms_export_never_writes(tmp_path, capsys):
    run_cli(capsys, "simulate", "-c", str(base_config(tmp_path)))
    ledger_file = tmp_path / "out" / "ledger.ndjson"
    exported = ledger_file.read_text().splitlines()
    forms = [
        (0, lambda b: b.update(height=0.9)),
        (0, lambda b: b.update(height="0")),
        (1, lambda b: b.update(height=True)),
        (0, lambda b: b["txs"][0].update(timestamp=repr(b["txs"][0]["timestamp"]))),
        (0, lambda b: b["signatures"][0].append("extra")),
        (1, lambda b: b["txs"][0].update(amount=b["txs"][0]["amount"] + "0")),
        (1, lambda b: b.update(note="x")),
    ]
    for line, edit in forms:
        lines = list(exported)
        obj = json.loads(lines[line])
        edit(obj)
        lines[line] = json.dumps(obj, separators=(",", ":"))
        ledger_file.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "verify", str(ledger_file))
        assert code == 2, lines[line][:80]
        assert json.loads(err.strip())["error"] == "ParseError"


def test_report_writes_sixteen_csvs(tmp_path, capsys):
    cfg = base_config(tmp_path)
    run_cli(capsys, "simulate", "-c", str(cfg))
    code, out, _ = run_cli(capsys, "report", str(tmp_path / "out"))
    assert code == 0
    reports = list((tmp_path / "out" / "reports").glob("*.csv"))
    assert len(reports) == 16
    assert (tmp_path / "out" / "reports" / "manifest.json").exists()


def test_report_is_idempotent(tmp_path, capsys):
    cfg = base_config(tmp_path)
    run_cli(capsys, "simulate", "-c", str(cfg))
    run_cli(capsys, "report", str(tmp_path / "out"))
    first = {p.name: p.read_bytes()
             for p in (tmp_path / "out" / "reports").glob("*.csv")}
    code, _, _ = run_cli(capsys, "report", str(tmp_path / "out"))
    assert code == 0
    second = {p.name: p.read_bytes()
              for p in (tmp_path / "out" / "reports").glob("*.csv")}
    assert first == second


def test_report_tampered_ledger_exits_3(tmp_path, capsys):
    cfg = base_config(tmp_path)
    run_cli(capsys, "simulate", "-c", str(cfg))
    ledger_file = tmp_path / "out" / "ledger.ndjson"
    lines = ledger_file.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["txs"][0]["description"] = obj["txs"][0]["description"] + "x"
    lines[1] = json.dumps(obj, separators=(",", ":"))
    ledger_file.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "report", str(tmp_path / "out"))
    assert code == 3
    assert "provenance" in json.loads(err.strip())["detail"]


def append_car_trip(run_dir):
    # an ordinary 4 km car trip added after the run would change the reports
    user_id = (run_dir / "population" / "persons.csv").read_text().splitlines()[1].split(",")[0]
    trips = run_dir / "population" / "trips.csv"
    trips.write_text(trips.read_text() + f"t-late,{user_id},car,3600.000,4200.000,4000.0,1,\n")


def double_price(run_dir):
    config = json.loads((run_dir / "run_config.json").read_text())
    config["price_cad_per_tonne"] *= 2
    (run_dir / "run_config.json").write_text(json.dumps(config))


def drop_input_hashes(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    del manifest["inputs"]
    (run_dir / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("tamper, named", [
    (append_car_trip, "population/trips.csv"),
    (double_price, "run_config.json"),
    (drop_input_hashes, "population/persons.csv"),
])
def test_report_changed_input_exits_3(tmp_path, capsys, tamper, named):
    cfg = base_config(tmp_path)
    run_cli(capsys, "simulate", "-c", str(cfg))
    tamper(tmp_path / "out")
    code, _, err = run_cli(capsys, "report", str(tmp_path / "out"))
    assert code == 3
    detail = json.loads(err.strip())["detail"]
    assert "provenance" in detail and named in detail


def test_report_parses_the_population_bytes_it_hashed(tmp_path, capsys, monkeypatch):
    run_cli(capsys, "simulate", "-c", str(base_config(tmp_path)))
    run_dir = tmp_path / "out"
    reports = run_dir / "reports"
    assert run_cli(capsys, "report", str(run_dir))[0] == 0
    original = {p.name: p.read_bytes() for p in reports.glob("*.csv")}
    shutil.rmtree(reports)

    # trips.csv is replaced the moment its bytes have been hashed
    trips = (run_dir / "population" / "trips.csv").read_bytes()
    sha256 = hashlib.sha256

    def hash_then_replace(data=b"", **kwargs):
        digest = sha256(data, **kwargs)
        if data == trips:
            append_car_trip(run_dir)
        return digest

    monkeypatch.setattr(simulator, "hashlib", types.SimpleNamespace(sha256=hash_then_replace))
    assert run_cli(capsys, "report", str(run_dir))[0] == 0
    assert (run_dir / "population" / "trips.csv").read_bytes() != trips
    assert {p.name: p.read_bytes() for p in reports.glob("*.csv")} == original


OPENED = None  # the paths opened while a test records them, else None


def _record_open(event, args):
    if event == "open" and OPENED is not None:
        OPENED.append(str(args[0]))


sys.addaudithook(_record_open)  # an audit hook stays for the whole process


def test_report_opens_each_population_file_once(tmp_path, capsys):
    global OPENED
    run_cli(capsys, "simulate", "-c", str(base_config(tmp_path)))
    run_dir = tmp_path / "out"
    OPENED = []
    try:
        code = run_cli(capsys, "report", str(run_dir))[0]
        opened = collections.Counter(OPENED)
    finally:
        OPENED = None
    assert code == 0
    for name in simulator.REPORT_INPUTS:
        assert opened[str(run_dir / name)] == 1, name


def test_report_reads_no_factor_table(tmp_path, capsys):
    # reports charge the tokens paid on chain, so the factor table the run
    # priced trips with may change or go once the run is done
    factors = tmp_path / "factors.csv"
    factors.write_text(resources.files("carbonledger").joinpath(
        "data", "default_factors.csv").read_text())
    run_cli(capsys, "simulate", "-c", str(base_config(tmp_path, factors_file=str(factors))))
    reports = tmp_path / "out" / "reports"

    def report_csvs():
        code, _, _ = run_cli(capsys, "report", str(tmp_path / "out"))
        assert code == 0
        return {p.name: p.read_bytes() for p in reports.glob("*.csv")}

    first = report_csvs()
    factors.write_text(factors.read_text().replace("car,0,20,285", "car,0,20,570"))
    assert report_csvs() == first
    factors.unlink()
    assert report_csvs() == first


def test_report_manifest_not_an_object_exits_2(tmp_path, capsys):
    cfg = base_config(tmp_path)
    run_cli(capsys, "simulate", "-c", str(cfg))
    (tmp_path / "out" / "manifest.json").write_text("[]\n")
    code, _, err = run_cli(capsys, "report", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(err.strip())["error"] == "ValueError"


def test_report_missing_artifacts_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "report", str(tmp_path / "void"))
    assert code == 2
    assert json.loads(err.strip())["error"] == "MissingArtifact"


def test_inspect_summary_and_address(tmp_path, capsys):
    cfg = base_config(tmp_path)
    _, out, _ = run_cli(capsys, "simulate", "-c", str(cfg))
    ledger_file = str(tmp_path / "out" / "ledger.ndjson")
    code, out, _ = run_cli(capsys, "inspect", ledger_file)
    assert code == 0
    summary = json.loads(out)
    assert summary["blocks"] >= 1 and "head" in summary

    wallets = (tmp_path / "out" / "wallets.csv").read_text().splitlines()[1:]
    some_address = wallets[0].split(",")[0]
    code, out, _ = run_cli(capsys, "inspect", ledger_file, "--address", some_address)
    assert code == 0
    assert out.strip()  # at least one transaction touches a wallet holder


def test_inspect_unknown_address_exits_2(tmp_path, capsys):
    cfg = base_config(tmp_path)
    run_cli(capsys, "simulate", "-c", str(cfg))
    code, _, err = run_cli(capsys, "inspect",
                           str(tmp_path / "out" / "ledger.ndjson"),
                           "--address", "ab" * 20)
    assert code == 2


def test_synth_writes_population(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "synth", "--seed", "3", "--n-users", "15",
                           "--out", str(tmp_path / "pop"))
    assert code == 0
    assert (tmp_path / "pop" / "persons.csv").exists()
    assert (tmp_path / "pop" / "trips.csv").exists()


def test_synth_feeds_simulate(tmp_path, capsys):
    run_cli(capsys, "synth", "--seed", "3", "--n-users", "15",
            "--out", str(tmp_path / "pop"))
    cfg = base_config(tmp_path,
                      persons_file=str(tmp_path / "pop" / "persons.csv"),
                      trips_file=str(tmp_path / "pop" / "trips.csv"))
    code, out, _ = run_cli(capsys, "simulate", "-c", str(cfg))
    assert code == 0
    assert "users=15" in out


def test_empty_day_reports_cleanly(tmp_path, capsys):
    run_cli(capsys, "synth", "--seed", "3", "--n-users", "5",
            "--out", str(tmp_path / "pop"))
    trips = tmp_path / "pop" / "trips.csv"
    trips.write_text(trips.read_text().splitlines()[0] + "\n")
    cfg = base_config(tmp_path,
                      persons_file=str(tmp_path / "pop" / "persons.csv"),
                      trips_file=str(trips))
    code, out, _ = run_cli(capsys, "simulate", "-c", str(cfg))
    assert code == 0 and "throughput=n/a" in out
    code, _, _ = run_cli(capsys, "report", str(tmp_path / "out"))
    assert code == 0
    assert len(list((tmp_path / "out" / "reports").glob("*.csv"))) == 16


# --- what `verify`, `inspect` and `report` see of an exported chain ---


@pytest.fixture(scope="module")
def faulty_run(tmp_path_factory):
    """A small seed-7 day on 7 validators with drops and two faulty nodes,
    simulated once; tests copy what they corrupt."""
    run_dir = tmp_path_factory.mktemp("faulty") / "out"
    cfg = run_dir.parent / "day.json"
    cfg.write_text(json.dumps({"seed": 7, "synthetic_users": 20, "n_active_nodes": 7,
                               "drop_probability": 0.1,
                               "byzantine": [[5, "silent"], [6, "equivocate"]]}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "-c", str(cfg), "--out", str(run_dir)]) == 0
    return run_dir


def flip_hex(rng, text):
    pos = rng.randrange(len(text))
    return text[:pos] + rng.choice([c for c in "0123456789abcdef" if c != text[pos]]) \
        + text[pos + 1:]


def flip_signature(rng, block, part):
    """Flip one hex digit of the signer (0) or attestation (1) of a signature."""
    sig = rng.choice(block["signatures"])
    sig[part] = flip_hex(rng, sig[part])


def bump_amount(rng, amount):
    return str(TokenAmount.parse(amount) + TokenAmount(rng.randint(1, 99)))


# one single-field mutation per field of a block line, over the fields the
# benchmark's mutation sweep covers
FIELD_MUTATIONS = {
    "tx.amount": lambda rng, b, t: t.update(amount=bump_amount(rng, t["amount"])),
    "tx.timestamp": lambda rng, b, t: t.update(
        timestamp=t["timestamp"] + rng.choice([0.001, 1.0, -0.5])),
    "tx.sender": lambda rng, b, t: t.update(sender=flip_hex(rng, t["sender"])),
    "tx.receiver": lambda rng, b, t: t.update(receiver=flip_hex(rng, t["receiver"])),
    "tx.kind": lambda rng, b, t: t.update(
        kind=rng.choice([k.value for k in TxKind if k.value != t["kind"]])),
    "tx.description": lambda rng, b, t: t.update(
        description=rng.choice([t["description"] + " ", t["description"][1:]])),
    "tx.signature": lambda rng, b, t: t.update(signature=flip_hex(rng, t["signature"])),
    "tx.tx_id": lambda rng, b, t: t.update(tx_id=flip_hex(rng, t["tx_id"])),
    "block.height": lambda rng, b, t: b.update(height=b["height"] + rng.choice([-1, 1, 2])),
    "block.prev_hash": lambda rng, b, t: b.update(prev_hash=flip_hex(rng, b["prev_hash"])),
    "block.block_hash": lambda rng, b, t: b.update(block_hash=flip_hex(rng, b["block_hash"])),
    "block.creator": lambda rng, b, t: b.update(creator=flip_hex(rng, b["creator"])),
    "block.signer": lambda rng, b, t: flip_signature(rng, b, 0),
    "block.attestation": lambda rng, b, t: flip_signature(rng, b, 1),
}

# sha256 of every mutated export's violation list (or its ParseError): it
# moves with any change to what `verify` reports on an imported chain
VIOLATIONS_DIGEST = "4d359fbab24cd7dd11a173c87b7531a5dae65f3958f3c0029a4e6c00a2487b48"


def mutated_exports(run_dir):
    """(mutation name, height, export text) for 308 seeded single-field
    mutations of the run's export, 22 of each kind."""
    lines = (run_dir / "ledger.ndjson").read_text().splitlines()
    rng = random.Random(13)
    for name in sorted(FIELD_MUTATIONS) * 22:
        height = rng.randrange(len(lines))
        block = json.loads(lines[height])
        FIELD_MUTATIONS[name](rng, block, rng.choice(block["txs"]))
        mutated = lines[:height] + [json.dumps(block, separators=(",", ":"))] + lines[height + 1:]
        yield name, height, "\n".join(mutated) + "\n"


def test_violations_on_imported_chains_are_pinned(faulty_run):
    outcomes = []
    for name, height, text in mutated_exports(faulty_run):
        try:
            report = verify_chain(import_chain(text))
            outcome = [[v.height, v.kind, v.detail] for v in report.violations]
        except ParseError as exc:
            outcome = ["ParseError", str(exc)]
        assert outcome, f"{name} at height {height} not detected"
        outcomes.append([name, height, outcome])
    assert len(outcomes) == 308
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == VIOLATIONS_DIGEST


def test_verify_and_report_build_one_object_per_line(faulty_run, tmp_path, monkeypatch, capsys):
    """`verify` and `report` build one `TokenTransaction` per tx line and one
    `Block` per block line of the export, and convert them to nothing else."""
    lines = (faulty_run / "ledger.ndjson").read_text().splitlines()
    expected = {"Block": len(lines),
                "TokenTransaction": sum(len(json.loads(line)["txs"]) for line in lines)}
    built = collections.Counter()
    for cls in (ledger_mod.TokenTransaction, ledger_mod.Block):
        def counting_new(cls_, *args, _new=cls.__new__, **kwargs):
            built[cls_.__name__] += 1
            return _new(cls_, *args, **kwargs)
        monkeypatch.setattr(cls, "__new__", staticmethod(counting_new))
    ledger_file = str(faulty_run / "ledger.ndjson")
    for argv in (["verify", ledger_file],
                 ["report", str(faulty_run), "--out", str(tmp_path / "reports")]):
        built.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert built == expected, argv[0]

    # `inspect` prints what the file holds
    height = len(lines) // 2
    txs = json.loads(lines[height])["txs"]
    tx = txs[-1]
    code, out, _ = run_cli(capsys, "inspect", ledger_file, "--tx", tx["tx_id"])
    assert code == 0
    assert out == json.dumps({"height": height, "position": len(txs) - 1,
                              **{k: tx[k] for k in ("tx_id", "amount", "kind", "sender",
                                                    "receiver")}}) + "\n"


def test_verify_and_report_fold_each_committed_tx_once(faulty_run, tmp_path, monkeypatch):
    committed = collections.Counter(
        tx["tx_id"] for line in (faulty_run / "ledger.ndjson").read_text().splitlines()
        for tx in json.loads(line)["txs"])
    folded = collections.Counter()
    fold = ledger_mod.fold_transaction

    def counting_fold(balances, tx):
        folded[tx.tx_id] += 1
        return fold(balances, tx)

    monkeypatch.setattr(ledger_mod, "fold_transaction", counting_fold)
    for argv in (["verify", str(faulty_run / "ledger.ndjson")],
                 ["report", str(faulty_run), "--out", str(tmp_path / "reports")]):
        folded.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert folded == committed, argv[0]


CORRUPTED_FILES = ("ledger.ndjson", "manifest.json")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(CORRUPTED_FILES), data=st.data())
def test_corrupt_run_dir_exits_with_a_contract_code(faulty_run, tmp_path, name, data):
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path)) / "run"
    shutil.copytree(faulty_run, run_dir, ignore=shutil.ignore_patterns("reports"))
    raw = bytearray((run_dir / name).read_bytes())
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
                               min_size=1, max_size=4), label="edits")
    for pos, byte in edits:
        raw[pos] = byte
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw)), label="length")]
    (run_dir / name).write_bytes(bytes(raw))
    ledger_file = str(run_dir / "ledger.ndjson")
    for argv in (["verify", ledger_file], ["inspect", ledger_file],
                 ["report", str(run_dir), "--out", str(run_dir / "reports")]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2, 3), argv[0]


@pytest.fixture(scope="module")
def day_inputs(tmp_path_factory):
    """A small config, the persons/trips pair it reads and a profile, as bytes."""
    root = tmp_path_factory.mktemp("inputs")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--seed", "3", "--n-users", "8", "--out", str(root)]) == 0
    config = {"seed": 7, "n_active_nodes": 4, "drop_probability": 0.1,
              "persons_file": "persons.csv", "trips_file": "trips.csv"}
    return {"config.json": json.dumps(config, indent=1).encode(),
            "synthetic.json": json.dumps({"seed": 7, "synthetic_users": 12}).encode(),
            "persons.csv": (root / "persons.csv").read_bytes(),
            "trips.csv": (root / "trips.csv").read_bytes(),
            "profile.json": resources.files("carbonledger.data").joinpath(
                "default_profile.json").read_bytes()}


def write_inputs(work, files):
    """Write `files` into `work`, the config pointing at the population there."""
    for name, content in files.items():
        if name == "config.json":
            content = content.replace(
                b'"persons.csv"', json.dumps(str(work / "persons.csv")).encode()).replace(
                b'"trips.csv"', json.dumps(str(work / "trips.csv")).encode())
        (work / name).write_bytes(content)


def corrupt_profile(edit):
    def apply(raw):
        profile = json.loads(raw)
        edit(profile)
        return json.dumps(profile).encode()
    return apply


@pytest.mark.parametrize("name, corrupt", [
    # the csv module raises its own error (not a ValueError) for a field
    # past its size limit
    ("persons.csv", lambda raw: raw.replace(b"female", b"f" * 200_000, 1)),
    ("trips.csv", lambda raw: raw + b"t-big,u00001,car,1.0,2.0,3.0,1," + b"v" * 200_000),
    pytest.param("persons.csv", lambda raw: raw.replace(b"female", b"fe\x00male", 1),
                 id="persons.csv-nul"),
    ("profile.json", lambda raw: b"[1, 2]"),
    ("profile.json", lambda raw: b"7"),
    ("profile.json", corrupt_profile(lambda p: p["mode_shares_by_age"].pop("40_59"))),
    ("profile.json", corrupt_profile(lambda p: p["gender_shares"].update(male="0.49"))),
    ("profile.json", corrupt_profile(lambda p: p["speed_kmh_by_mode"].update(car=[0, 0]))),
    ("profile.json", corrupt_profile(lambda p: p.update(distance_m_lognormal_by_mode={
        mode: [1e6, 0.5] for mode in p["distance_m_lognormal_by_mode"]}))),
])
def test_simulate_and_synth_input_faults_exit_2(day_inputs, tmp_path, capsys, name, corrupt):
    files = dict(day_inputs)
    files[name] = corrupt(files[name])
    write_inputs(tmp_path, files)
    runs = ([["synth", "--n-users", "12", "--profile", str(tmp_path / "profile.json"),
              "--out", str(tmp_path / "population")],
             ["simulate", "-c", str(tmp_path / "synthetic.json"), "--profile",
              str(tmp_path / "profile.json"), "--out", str(tmp_path / "synthetic")]]
            if name == "profile.json" else
            [["simulate", "-c", str(tmp_path / "config.json"), "--out", str(tmp_path / "run")]])
    for argv in runs:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv[0]
        assert "detail" in json.loads(err.strip())


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n_users", [1, 2, 5, 200])
def test_profile_missing_a_table_exits_2_whatever_the_size(day_inputs, tmp_path, capsys,
                                                          seed, n_users):
    # a draw reaches `mode_shares_by_age["under_18"]` only once a user is under 18
    files = dict(day_inputs)
    files["profile.json"] = corrupt_profile(
        lambda p: p["mode_shares_by_age"].pop("under_18"))(files["profile.json"])
    write_inputs(tmp_path, files)
    code, _, err = run_cli(capsys, "synth", "--seed", str(seed), "--n-users", str(n_users),
                           "--profile", str(tmp_path / "profile.json"),
                           "--out", str(tmp_path / "population"))
    assert code == 2
    assert "under_18" in json.loads(err.strip())["detail"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["config.json", "persons.csv", "trips.csv", "profile.json"]),
       data=st.data())
def test_corrupt_inputs_to_simulate_and_synth_exit_0_or_2(day_inputs, tmp_path, name, data):
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    files = dict(day_inputs)
    raw = bytearray(files[name])
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
                               min_size=1, max_size=4), label="edits")
    for pos, byte in edits:
        raw[pos] = byte
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw)), label="length")]
    files[name] = bytes(raw)
    write_inputs(work, files)
    runs = ([["synth", "--n-users", "12", "--profile", str(work / "profile.json"),
              "--out", str(work / "population")],
             ["simulate", "-c", str(work / "synthetic.json"), "--profile",
              str(work / "profile.json"), "--out", str(work / "synthetic")]]
            if name == "profile.json" else
            [["simulate", "-c", str(work / "config.json"), "--out", str(work / "run")]])
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2), argv[0]
