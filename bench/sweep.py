#!/usr/bin/env python3
"""Scaling sweep of the day, on demand and never gated.

    python3 bench/sweep.py --seed 7

Replays day-paper's config (4 validators, 10-20 ms links, no drops or
faults) once at each user count and prints day_s per size and the
growth per doubling of users, ``(t2 / t1) ** (1 / log2(n2 / n1))``: 2.0 is
linear, 4.0 quadratic.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import shutil
import tempfile
from pathlib import Path

import run

USERS = (500, 1000, 2000, 3186, 6372)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    print(f"machine: {run.machine_info()}")
    run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    rows = []
    for users in USERS:
        spec = dataclasses.replace(run.WORKLOADS["day-paper"], users=users)
        work = Path(tempfile.mkdtemp(prefix=f"sweep-{users}-", dir=run.WORK_ROOT))
        try:
            cfg = run.make_inputs(spec, args.seed, work / "inputs")
            result, elapsed = run.replay(cfg, work / "day")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        row = {"users": users, "trips": len(result.trips), "txs": result.committed,
               "day_s": elapsed}
        if rows:
            prev = rows[-1]
            row["per_doubling"] = (row["day_s"] / prev["day_s"]) ** (
                1 / math.log2(users / prev["users"]))
        rows.append(row)
        growth = f"{row['per_doubling']:.2f}x per doubling" if "per_doubling" in row else ""
        print(f"users={users:6d} trips={row['trips']:6d} txs={row['txs']:6d} "
              f"day_s={row['day_s']:8.3f} {growth}", flush=True)
    print(json.dumps({"seed": args.seed, "sweep": rows}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
