"""Every function in the package is reached by some command.

The CLI is driven in process under `sys.setprofile` through every
subcommand and option on small inputs: `synth`, five `simulate` configs,
`verify` and `report` on every run, `inspect` in each of its forms, and one
bad input for each documented input error.  Every `def` in
`src/carbonledger/*.py` must be entered at least once, or be named in
`ALLOWLIST` with its reason.  A function is matched by its file and its first
line, which for a decorated function is its first decorator's line, as in
`co_firstlineno`.

Run as a script (`python tests/test_reachability.py`) it needs no pytest:
it prints every unreached function and exits 1 when one is outside the
allowlist.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # run as a script from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import carbonledger
from carbonledger.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"

# function -> why no command reaches it
ALLOWLIST = {
    "ledger.TokenTransaction.amount": "read by bench/",
    "ledger.TokenTransaction.kind": "read by bench/",
    "consensus.Deliveries.dropped": "read by bench/",
    "consensus.RoundResult.n_messages": "read by bench/",
    "consensus.RoundResult.n_dropped": "read by bench/",
    "population._member_parser": "called at import",
}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of every `def` in the package,
    nested ones included."""
    package = Path(carbonledger.__file__).resolve().parent
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0] if child.decorator_list else child
                found[(str(path), first.lineno)] = prefix + child.name
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return found


def expect(code: int, *argv: str, error: str = "") -> None:
    """Run one command in process, its output discarded, and check its exit
    code and, for an input error, the error it names."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        got = main(list(argv))
    named = json.loads(err.getvalue())["error"] if error else ""
    if (got, named) != (code, error):
        raise AssertionError(f"{' '.join(argv)} exited {got} {named}, expected {code} {error}")


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def drive(work: Path) -> None:
    """Every subcommand and option, and one bad input per input error."""
    profile = work / "profile.json"
    profile.write_text(json.dumps(carbonledger.population.load_profile()))
    pop = work / "pop"
    expect(0, "synth", "--seed", "3", "--n-users", "12", "--profile", str(profile),
           "--out", str(pop))
    persons, trips = pop / "persons.csv", pop / "trips.csv"
    lines = trips.read_text().splitlines()
    car = next(i for i, line in enumerate(lines) if line.split(",")[2] == "car")
    lines[car] = lines[car] + "ride_hail"  # the empty vehicle_class column
    trips.write_text("\n".join(lines) + "\n")

    runs = {
        "default": (["--seed", "7"], {"synthetic_users": 12}),
        "faulty": (["--active-nodes", "7", "--byzantine", "1:silent",
                    "--byzantine", "1:equivocate"],
                   {"synthetic_users": 12, "drop_probability": 0.1, "batch_window": 3}),
        "delay": (["--byzantine", "1:delay", "--unsafe-faults"],
                  {"synthetic_users": 12, "n_active_nodes": 10, "delays_ms": [0.0, 20.0]}),
        "files": ([], {"persons_file": str(persons), "trips_file": str(trips),
                       "operator_pays_remainder": True, "cap_tokens": "5000.00"}),
        # a run of its own: with operator_pays_remainder and no given pool,
        # the pool is the cap plus the bus remainders (`TokenAmount.__add__`)
        "pool": ([], {"synthetic_users": 12, "initial_pool_tokens": "9000.00"}),
    }
    for name, (flags, config) in runs.items():
        out = work / name
        expect(0, "simulate", "-c", write_json(work / f"{name}.json", config),
               "--out", str(out), *flags)
        expect(0, "verify", str(out / "ledger.ndjson"))
        expect(0, "report", str(out))

    ledger_file = str(work / "default" / "ledger.ndjson")
    block = json.loads(Path(ledger_file).read_text().splitlines()[1])
    tx = block["txs"][0]
    expect(0, "inspect", ledger_file)
    expect(0, "inspect", ledger_file, "--height", "1")
    expect(0, "inspect", ledger_file, "--address", tx["receiver"])
    expect(0, "inspect", ledger_file, "--tx", tx["tx_id"])

    # a tampered amount fails verification
    text = Path(ledger_file).read_text()
    amount = f'"amount":"{tx["amount"]}"'
    tampered = work / "tampered.ndjson"
    tampered.write_text(text.replace(amount, '"amount":"0.01"', 1))
    expect(1, "verify", str(tampered))

    def refused(name: str, config: dict, error: str) -> None:
        expect(2, "simulate", "-c", write_json(work / f"{name}.json", config),
               "--out", str(work / "refused"), error=error)

    refused("malformed", {"n_active_nodes": "4"}, "ValueError")
    wrong_header = work / "wrong_header.csv"
    wrong_header.write_text(persons.read_text().replace("user_id", "person_id", 1))
    refused("header", {"persons_file": str(wrong_header), "trips_file": str(trips)},
            "SchemaError")
    dangling = work / "dangling.csv"
    dangling.write_text(re.sub(r"\n([^,\n]*),u\d+,", r"\n\1,nobody,", trips.read_text(),
                               count=1))
    refused("dangling", {"persons_file": str(persons), "trips_file": str(dangling)},
            "DanglingUserRef")
    slow_bands = work / "factors.csv"  # every band ends at 1 km/h
    slow_bands.write_text("class,v_lo_kmh,v_hi_kmh,g_per_km\n" + "".join(
        f"{cls},0,1,100\n" for cls in ("car", "ride_hail", "bus", "school_bus")))
    refused("factors", {"synthetic_users": 12, "factors_file": str(slow_bands)},
            "MissingFactor")

    # a trip whose end time is not after its start is a rejected row, and
    # the day runs
    backwards = work / "backwards.csv"
    rows = trips.read_text().splitlines()
    fields = rows[1].split(",")
    fields[4] = fields[3]
    backwards.write_text("\n".join([rows[0], ",".join(fields)] + rows[2:]) + "\n")
    expect(0, "simulate", "--out", str(work / "backwards"), "-c", write_json(
        work / "backwards.json", {"persons_file": str(persons), "trips_file": str(backwards)}))
    if ",end_time," not in (work / "backwards" / "rejects.csv").read_text():
        raise AssertionError("the backwards trip is not in rejects.csv")


def unreached() -> list[str]:
    """The dotted names of the package's functions that no command enters."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    with tempfile.TemporaryDirectory() as work:
        sys.setprofile(profile)
        try:
            drive(Path(work))
        finally:
            sys.setprofile(previous)
    files = {name: os.path.realpath(name) for name in {code.co_filename for code in codes}}
    entered = {(files[code.co_filename], code.co_firstlineno) for code in codes}
    return sorted(name for key, name in defined_functions().items() if key not in entered)


def test_every_function_is_reached():
    missing = unreached()
    assert [name for name in missing if name not in ALLOWLIST] == []
    # an entry that a command now reaches is stale
    assert sorted(ALLOWLIST) == missing


def test_bench_entries_have_a_reader():
    readers = "".join((BENCH / name).read_text() for name in ("run.py", "tracer.py"))
    for name, reason in ALLOWLIST.items():
        if reason == "read by bench/":
            assert "." + name.rsplit(".", 1)[1] in readers, name


if __name__ == "__main__":
    missing = unreached()
    for name in missing:
        print(name, f"({ALLOWLIST[name]})" if name in ALLOWLIST else "UNREACHED")
    sys.exit(1 if any(name not in ALLOWLIST for name in missing) else 0)
