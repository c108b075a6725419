#!/usr/bin/env python3
"""carbonledger benchmark: replayed days, their commit path and their read path.

    python3 bench/run.py --workload day-paper --seed 7 --seconds 50 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0`` and the per-layer metrics with ``--trace 1``.  See
``bench/README.md`` for the workloads, the metrics and the method.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / "_work"
SPANS_DIR = HERE / "_out"


@dataclass(frozen=True)
class Workload:
    why: str
    users: int
    validators: int
    drop_probability: float = 0.0
    byzantine: tuple[tuple[int, str], ...] = ()
    # > 0: keep the fewest leading users whose motorized trips reach this
    # count, so every seed settles about as many trips; `users` caps the draw
    motorized_trips: int = 0


WORKLOADS = {
    "day-paper": Workload(
        "paper-scale day on 4 validators: the ledger commit path dominates",
        users=3186, validators=4),
    "day-faulty-32": Workload(
        "1,000 motorized trips (about 500 users) on 32 validators with 5% drops "
        "and 3 byzantine nodes: consensus dominates",
        users=800, motorized_trips=1000, validators=32, drop_probability=0.05,
        byzantine=((29, "silent"), (30, "delay"), (31, "equivocate"))),
}

# An untraced run splits --seconds into ROUNDS equal slots.  Each slot repeats
# set-up for SETUP_SHARE of it, replays one day and spends the rest of the
# slot on the read path (verify, report) of that day's run directory.
ROUNDS = 4
SETUP_SHARE = 0.1
MIN_SETUPS = 3  # per round, however short the slot


# --- the package under test --------------------------------------------------

def use_checkout_package():
    """Put this checkout's ``src/`` first on the import path, or exit."""
    src = ROOT / "src"
    if not (src / "carbonledger" / "__init__.py").is_file():
        sys.exit(f"bench: no carbonledger package under {src}")
    sys.path.insert(0, str(src))


use_checkout_package()

from carbonledger import cli, ledger, population, simulator  # noqa: E402
from carbonledger.emissions import ZERO_EMISSION  # noqa: E402
from carbonledger.ledger import TxKind  # noqa: E402
from tracer import CommitTimer, Tracer, tenth_medians_us  # noqa: E402


# --- operations --------------------------------------------------------------

class Outcome:
    """Operations attempted and the checks that failed on them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{op}: {p}" for p in problems]


def make_inputs(spec: Workload, seed: int, dest: Path) -> simulator.SimulationConfig:
    """Write the workload's population for ``seed`` and return the day config."""
    dest.mkdir(parents=True)
    persons, trips = population.generate_synthetic(
        simulator.child_seed(seed, "population"), spec.users)
    if spec.motorized_trips:
        persons, trips = leading_users(persons, trips, spec.motorized_trips)
    population.write_population(persons, trips, dest / "persons.csv", dest / "trips.csv")
    return simulator.SimulationConfig(
        seed=seed,
        n_active_nodes=spec.validators,
        delays_ms=(10.0, 20.0),
        drop_probability=spec.drop_probability,
        byzantine=spec.byzantine,
        persons_file=str(dest / "persons.csv"),
        trips_file=str(dest / "trips.csv"),
        batch_window=1,
    )


def leading_users(persons, trips, motorized_trips: int):
    """The fewest leading users, in draw order, with ``motorized_trips``
    motorized trips between them, and their trips."""
    per_user = Counter(t.user_id for t in trips if t.mode not in ZERO_EMISSION)
    total = 0
    for n, person in enumerate(persons, start=1):
        total += per_user[person.user_id]
        if total >= motorized_trips:
            kept = {p.user_id for p in persons[:n]}
            return persons[:n], [t for t in trips if t.user_id in kept]
    raise ValueError(f"{len(persons)} users have only {total} motorized trips")


def replay(cfg: simulator.SimulationConfig, run_dir: Path):
    """One day, artifact export included; returns (result, wall seconds)."""
    gc.collect()
    t0 = perf_counter()
    result = simulator.run(cfg, out_dir=run_dir)
    return result, perf_counter() - t0


def cli_call(argv: list[str]) -> tuple[int, float]:
    gc.collect()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        t0 = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - t0
    return code, elapsed


def verify(run_dir: Path) -> tuple[float, list[str]]:
    code, elapsed = cli_call(["verify", str(run_dir / "ledger.ndjson")])
    return elapsed, [] if code == 0 else [f"verify exited {code}"]


def report(run_dir: Path, out: Path) -> tuple[float, list[str]]:
    code, elapsed = cli_call(["report", str(run_dir), "--out", str(out)])
    return elapsed, [] if code == 0 else [f"report exited {code}"]


# --- output checks -----------------------------------------------------------

def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reports_sha256(reports_dir: Path) -> str:
    """One digest over every report CSV, in name order."""
    h = hashlib.sha256()
    for path in sorted(reports_dir.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_day(result, failed_pools: int) -> tuple[list[str], dict]:
    """Chain verifies; every on-chain trip payment equals its trip's cost;
    paid plus unpaid trips are the costly trips, and the unpaid ones are
    exactly the failed pools (one settlement per pool at batch window 1)."""
    problems = []
    if not ledger.verify_chain(result.ledger).ok:
        problems.append("verify_chain reports violations")
    costly = {tid for tid, (_, cost) in result.trip_costs.items() if cost.centi > 0}
    paid: dict[str, int] = {}
    mismatched = 0
    chain_txs = 0
    for block in result.ledger.chain[1:]:
        chain_txs += len(block.txs)
        for tx in block.txs:
            if tx.kind is not TxKind.TRIP_PAYMENT:
                continue
            trip_id = tx.description.split(";", 1)[0].removeprefix("trip:")
            paid[trip_id] = paid.get(trip_id, 0) + 1
            if tx.amount != result.trip_costs[trip_id][1]:
                mismatched += 1
    unpaid = len(costly - paid.keys())
    if mismatched:
        problems.append(f"{mismatched} trip payments differ from trip_cost")
    if any(n > 1 for n in paid.values()) or not paid.keys() <= costly:
        problems.append("a trip is paid twice or a non-costly trip is paid")
    if len(paid) + unpaid != len(costly):
        problems.append("paid + unpaid != costly trips")
    if unpaid != failed_pools:
        problems.append(f"{unpaid} unpaid trips but {failed_pools} failed pools")
    if chain_txs != result.committed:
        problems.append(f"{chain_txs} txs on chain, {result.committed} reported committed")
    counts = {"costly": len(costly), "paid": len(paid), "unpaid": unpaid,
              "mismatched": mismatched, "submitted": result.submitted,
              "committed": result.committed, "blocks": len(result.ledger.chain)}
    return problems, counts


def _flip_hex(text: str) -> str:
    return text[:-1] + format((int(text[-1], 16) + 1) % 16, "x")


def _bump_amount(text: str) -> str:
    whole, frac = text.split(".")
    return f"{int(whole) + (frac == '99')}.{(int(frac) + 1) % 100:02d}"


# single-field mutations of one exported block (b) or one of its txs (t)
MUTATIONS = {
    "tx.amount": lambda b, t: t.update(amount=_bump_amount(t["amount"])),
    "tx.timestamp": lambda b, t: t.update(timestamp=t["timestamp"] + 1.0),
    "tx.sender": lambda b, t: t.update(sender=_flip_hex(t["sender"])),
    "tx.receiver": lambda b, t: t.update(receiver=_flip_hex(t["receiver"])),
    "tx.kind": lambda b, t: t.update(kind="purchase" if t["kind"] == "sale" else "sale"),
    "tx.description": lambda b, t: t.update(description=t["description"] + " "),
    "tx.signature": lambda b, t: t.update(signature=_flip_hex(t["signature"])),
    "tx.tx_id": lambda b, t: t.update(tx_id=_flip_hex(t["tx_id"])),
    "block.height": lambda b, t: b.update(height=b["height"] + 1),
    "block.prev_hash": lambda b, t: b.update(prev_hash=_flip_hex(b["prev_hash"])),
    "block.block_hash": lambda b, t: b.update(block_hash=_flip_hex(b["block_hash"])),
    "block.creator": lambda b, t: b.update(creator=_flip_hex(b["creator"])),
    "block.signer": lambda b, t: b["signatures"][0].__setitem__(
        0, _flip_hex(b["signatures"][0][0])),
    "block.attestation": lambda b, t: b["signatures"][0].__setitem__(
        1, _flip_hex(b["signatures"][0][1])),
}


def mutation_sweep(export: str, seed: int) -> list[str]:
    """Apply each mutation once at a seeded block and tx; each must be caught
    by import or verification."""
    rng = random.Random(seed)
    lines = export.splitlines()
    missed = []
    for name, mutate in MUTATIONS.items():
        height = rng.randrange(1, len(lines))
        block = json.loads(lines[height])
        mutate(block, rng.choice(block["txs"]))
        mutated = list(lines)
        mutated[height] = json.dumps(block, separators=(",", ":"))
        try:
            caught = not ledger.verify_chain(ledger.import_chain("\n".join(mutated) + "\n")).ok
        except ledger.ParseError:
            caught = True
        if not caught:
            missed.append(f"{name} at height {height} not detected")
    return missed


# --- runs --------------------------------------------------------------------

def quantile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def repeats(until: float, at_least: int = 1):
    """Yield 0, 1, ... until ``perf_counter()`` reaches ``until``, but at
    least ``at_least`` times."""
    n = 0
    while n < at_least or perf_counter() < until:
        yield n
        n += 1


def run_untraced(spec: Workload, seed: int, seconds: float, work: Path, out: Outcome):
    timer = CommitTimer()
    setup_s, day_s, verify_s, report_s = [], [], [], []
    ledger_digests, report_digests, settled = set(), set(), set()

    # set-ups, days and the read path are interleaved so that each samples
    # the host's speed across the whole run; drift of the host otherwise
    # lands on whichever metric is measured last
    slot = seconds / ROUNDS
    previous = None
    start = perf_counter()
    for k in range(ROUNDS):
        slot_end = start + (k + 1) * slot
        for n in repeats(perf_counter() + SETUP_SHARE * slot, MIN_SETUPS):
            inputs = work / f"setup{k}-{n}"
            gc.collect()
            t0 = perf_counter()
            cfg = make_inputs(spec, seed, inputs)
            setup_s.append(perf_counter() - t0)
            out.record("setup", [])
            if previous:
                shutil.rmtree(previous)
            previous = inputs

        if k:
            shutil.rmtree(run_dir)
        run_dir = work / f"day{k}"
        failed_before = timer.failed_pools
        with timer.install():
            result, elapsed = replay(cfg, run_dir)
        day_s.append(elapsed)
        problems, counts = check_day(result, timer.failed_pools - failed_before)
        del result
        out.record("day", problems)
        ledger_digests.add(sha256_file(run_dir / "ledger.ndjson"))
        settled.add((counts["committed"], counts["submitted"]))

        for n in repeats(slot_end):
            elapsed, problems = verify(run_dir)
            verify_s.append(elapsed)
            out.record("verify", problems)
            reports_dir = work / f"reports{n}"
            elapsed, problems = report(run_dir, reports_dir)
            report_s.append(elapsed)
            out.record("report", problems)
            report_digests.add(reports_sha256(reports_dir))
            shutil.rmtree(reports_dir)

    # the sweep is a check, not measured work; it imports the chain 14 more
    # times and would otherwise set peak_rss_mb
    rss_mb = peak_rss_mb()
    out.record("mutation-sweep",
               mutation_sweep((run_dir / "ledger.ndjson").read_text(), seed))
    out.record("determinism", [
        f"{len(s)} distinct {what} across repeats"
        for what, s in (("ledger exports", ledger_digests),
                        ("report sets", report_digests),
                        ("settlement counts", settled)) if len(s) != 1])

    committed, submitted = next(iter(settled))
    commit_ms = [1e3 * s for s in timer.samples_s]
    print(f"settlements: {submitted} submitted, {committed} committed, "
          f"{submitted - committed} never committed; trips {counts}")
    print(f"fingerprint: ledger.ndjson sha256={sorted(ledger_digests)[0]} "
          f"reports sha256={sorted(report_digests)[0]}")
    print(f"samples: setup {len(setup_s)}, day {len(day_s)}, commit {len(commit_ms)}, "
          f"verify {len(verify_s)}, report {len(report_s)}; not gated: commit_ms.p50 "
          f"{quantile(commit_ms, 50):.4f} ms, commit_ms.p99 {quantile(commit_ms, 99):.4f} ms")
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "day_s": (statistics.median(day_s), "s"),
        "commit_ms.mean": (statistics.fmean(commit_ms), "ms"),
        "commit_ms.p95": (quantile(commit_ms, 95), "ms"),
        "settled_ratio": (committed / submitted, "ratio"),
        "verify_s": (statistics.median(verify_s), "s"),
        "report_s": (statistics.median(report_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run_traced(spec: Workload, seed: int, work: Path, out: Outcome, spans_file: Path):
    """One day under the commit timer, as in an untraced run, then one traced
    day with its verify and report; per-layer figures come from the latter."""
    cfg = make_inputs(spec, seed, work / "inputs")
    with CommitTimer().install():
        _, timed_s = replay(cfg, work / "timed")

    tracer = Tracer()
    with tracer.install():
        cfg = make_inputs(spec, seed, work / "traced-inputs")
        result, traced_s = replay(cfg, work / "traced")
        day_counts = dict(tracer.counts)
        _, problems = verify(work / "traced")
        out.record("verify", problems)
        _, problems = report(work / "traced", work / "reports")
        out.record("report", problems)
    tracer.write(spans_file)

    problems, counts = check_day(result, day_counts.get("failed_pools", 0))
    digests = {sha256_file(work / d / "ledger.ndjson") for d in ("timed", "traced")}
    if len(digests) != 1:
        problems.append("tracing or timing changed the ledger export")
    out.record("day", problems)

    c = day_counts
    rounds = c.get("rounds", 0)
    blocks = c.get("committed_blocks", 0)
    self_ms = tracer.self_times_ms()
    early_us, late_us = tenth_medians_us(tracer.durations_s("ledger.apply_block"))
    metrics = {
        "ledger.apply_block.ms": (tracer.total_ms("ledger.apply_block"), "ms"),
        "ledger.apply_block.us.early": (early_us, "us"),
        "ledger.apply_block.us.late": (late_us, "us"),
        "ledger.validate_pool.ms": (tracer.total_ms("ledger.validate_pool"), "ms"),
        "ledger.validate_pool.calls_per_round": (
            len(tracer.durations_s("ledger.validate_pool")) / rounds, "count"),
        "ledger.digest.per_committed_tx": (
            c.get("ledger.digest", 0) / sum(len(b.txs) for b in result.ledger.chain), "count"),
        "tokens.format.calls": (c.get("tokens.format", 0), "count"),
        "ledger.verify_chain.ms": (tracer.total_ms("ledger.verify_chain"), "ms"),
        "ledger.import_chain.ms": (tracer.total_ms("ledger.import_chain"), "ms"),
        "ledger.export_chain.ms": (tracer.total_ms("ledger.export_chain"), "ms"),
        "simulator.write_artifacts.ms": (tracer.total_ms("simulator.write_artifacts"), "ms"),
        "consensus.run_round.self_ms": (self_ms.get("consensus.run_round", 0.0), "ms"),
        "consensus.simulate_network.ms": (tracer.total_ms("consensus.simulate_network"), "ms"),
        "consensus.build_block.ms": (tracer.total_ms("consensus.build_block"), "ms"),
        "consensus.messages_per_commit": (c.get("messages", 0) / blocks, "count"),
        "consensus.rounds_per_commit": (rounds / blocks, "count"),
        "consensus.dropped_ratio": (c.get("dropped", 0) / c.get("messages", 1), "ratio"),
        "consensus.failed_pools": (c.get("failed_pools", 0), "count"),
        "market.settle_trip.ms": (tracer.total_ms("market.settle_trip"), "ms"),
        "market.purchases_per_settlement": (
            c.get("purchases", 0) / c.get("settlements", 1), "count"),
        "emissions.trip_cost.ms": (tracer.total_ms("emissions.trip_cost"), "ms"),
        "simulator.run.self_ms": (self_ms.get("simulator.run", 0.0), "ms"),
        "population.generate_synthetic.ms": (
            tracer.total_ms("population.generate_synthetic"), "ms"),
        "population.load_population.ms": (tracer.total_ms("population.load_population"), "ms"),
        "analytics.all_reports.ms": (tracer.total_ms("analytics.all_reports"), "ms"),
        "analytics.leftovers_by.ms": (tracer.total_ms("analytics.leftovers_by"), "ms"),
        "analytics.export_reports.ms": (tracer.total_ms("analytics.export_reports"), "ms"),
        "cli.report.self_ms": (self_ms.get("cli.report", 0.0), "ms"),
        "trace.overhead_s": (traced_s - timed_s, "s"),
    }
    print(f"days: untraced {timed_s:.3f} s, traced {traced_s:.3f} s")
    print(f"trips {counts}")
    print(f"spans: {len(tracer.spans)} written to {spans_file}")
    print("self time by span (ms):")
    for name, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        print(f"  {name:36s} {ms:12.3f}")
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def machine_info() -> str:
    uname = os.uname()
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"os={uname.sysname}-{uname.release}-{uname.machine} git_sha={git_sha()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="wall-time budget of an untraced run's measured part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]

    print(f"machine: {machine_info()}")
    print(f"workload: {args.workload} ({spec.why}); seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")

    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    out = Outcome()
    try:
        if args.trace:
            spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
            metrics = run_traced(spec, args.seed, work, out, spans)
        else:
            metrics = run_untraced(spec, args.seed, args.seconds, work, out)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in out.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
