#!/usr/bin/env python3
"""How much the commit timer of an untraced run moves day_s; on demand.

    python3 bench/timer_check.py --seed 7

Alternates day-paper days with and without the perf_counter pair around
``ConsensusEngine.run_until_commit`` (swapping which goes first in each
pair) and prints both medians and their difference as a share of the bare
median.  It also times the wrapper around a no-op, which bounds the
timer's direct cost per day: calls per day times cost per call.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import run
from tracer import CommitTimer

PAIRS = 5


def wrapper_cost_s(calls: int = 200_000) -> float:
    """Seconds per call added by the timing wrapper, measured on a no-op."""

    def run_until_commit(engine, pool):
        return (pool, None, 0.0)

    timed = CommitTimer().wrap(run_until_commit)
    pool = [1]
    t0 = perf_counter()
    for _ in range(calls):
        run_until_commit(None, pool)
    t1 = perf_counter()
    for _ in range(calls):
        timed(None, pool)
    t2 = perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    print(f"machine: {run.machine_info()}")
    run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="timer-check-", dir=run.WORK_ROOT))
    bare, timed = [], []
    try:
        cfg = run.make_inputs(run.WORKLOADS["day-paper"], args.seed, work / "inputs")
        for i in range(PAIRS):
            for with_timer in ((False, True) if i % 2 == 0 else (True, False)):
                timer = CommitTimer()
                if with_timer:
                    with timer.install():
                        _, elapsed = run.replay(cfg, work / f"day{i}t")
                    timed.append(elapsed)
                    calls = len(timer.samples_s)
                else:
                    _, elapsed = run.replay(cfg, work / f"day{i}b")
                    bare.append(elapsed)
                print(f"pair {i}: {'timed' if with_timer else 'bare '} {elapsed:.3f} s",
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    b, t = statistics.median(bare), statistics.median(timed)
    per_call = wrapper_cost_s()
    print(f"median day_s: bare {b:.3f} s, timed {t:.3f} s, shift {(t - b) / b:+.2%}")
    print(f"direct cost: {calls} calls x {per_call * 1e6:.3f} us = "
          f"{calls * per_call * 1e3:.2f} ms per day ({calls * per_call / b:.3%} of day_s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
