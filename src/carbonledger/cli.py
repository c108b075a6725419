"""Command-line entry point.

Subcommands: simulate, report, verify, inspect, synth.
Exit codes: 0 success, 1 chain verification failure, 2 input error,
3 provenance failure.  Errors go to stderr as one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

from . import analytics, consensus, emissions, ledger as ledger_mod, market, population, simulator
from .tokens import TokenAmount

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_PROVENANCE = 3


class MissingArtifact(Exception):
    pass


def _fail(exc: BaseException, code: int) -> int:
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "detail": str(exc)}
    ) + "\n")
    return code


def _apply_overrides(cfg: simulator.SimulationConfig, args) -> simulator.SimulationConfig:
    if args.seed is not None:
        cfg.seed = args.seed
    if args.active_nodes is not None:
        cfg.n_active_nodes = args.active_nodes
    if args.out is not None:
        cfg.out_dir = args.out
    if args.profile is not None:
        cfg.profile_file = args.profile
    if args.unsafe_faults:
        cfg.unsafe_faults = True
    for spec in args.byzantine or []:
        count_s, _, behavior = spec.partition(":")
        count = int(count_s)
        consensus.Behavior(behavior)  # validates the name
        existing = list(cfg.byzantine)
        taken = {i for i, _ in existing}
        # faulty nodes fill in from the highest validator index down
        idx = cfg.n_active_nodes - 1
        while count > 0 and idx >= 0:
            if idx not in taken:
                existing.append((idx, behavior))
                taken.add(idx)
                count -= 1
            idx -= 1
        cfg.byzantine = tuple(existing)
    return cfg


def cmd_simulate(args) -> int:
    try:
        if args.config:
            cfg = simulator.SimulationConfig.from_json(Path(args.config).read_text())
        else:
            cfg = simulator.SimulationConfig()
        cfg = _apply_overrides(cfg, args)
        if cfg.out_dir is None:
            cfg.out_dir = "out"
        result = simulator.run(cfg, out_dir=cfg.out_dir)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, RecursionError,
            population.SchemaError, population.DanglingUserRef,
            consensus.UnsafeFaultConfig, ledger_mod.LedgerError,
            market.MarketError, emissions.EmissionsError) as exc:
        return _fail(exc, EXIT_INPUT_ERROR)
    throughput = "n/a" if result.throughput is None else f"{result.throughput:.2f}"
    print(f"users={len(result.persons)} trips={len(result.trips)} "
          f"submitted={result.submitted} committed={result.committed} "
          f"throughput={throughput} cap={result.cap} "
          f"head={result.ledger.head.block_hash}")
    return EXIT_OK


def _read_chain(path: str | Path) -> ledger_mod.Ledger:
    """Import a ledger export line by line; bytes that are not UTF-8, wherever
    they are in the file, are malformed input like any other."""
    try:
        with open(path, encoding="utf-8") as fh:
            return ledger_mod.import_chain(fh)
    except UnicodeDecodeError as exc:
        raise ledger_mod.ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def _load_run_dir(run_dir: Path):
    ledger_file = run_dir / "ledger.ndjson"
    manifest_file = run_dir / "manifest.json"
    for path in (ledger_file, manifest_file,
                 *(run_dir / name for name in simulator.REPORT_INPUTS)):
        if not path.exists():
            raise MissingArtifact(str(path))
    chain = _read_chain(ledger_file)
    manifest = json.loads(manifest_file.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_file} is not a JSON object")
    return chain, manifest


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    try:
        chain, manifest = _load_run_dir(run_dir)
        inputs = simulator.read_report_inputs(run_dir)
    except (MissingArtifact, OSError, ValueError,
            ledger_mod.ParseError, json.JSONDecodeError, RecursionError) as exc:
        return _fail(exc, EXIT_INPUT_ERROR)

    # provenance: the exported chain must still verify and match the manifest,
    # and the population and config must be the ones the run hashed
    report = ledger_mod.verify_chain(chain)
    if not report.ok or manifest.get("ledger_head") != report.head_hash:
        detail = "; ".join(
            f"height {v.height}: {v.kind}" for v in report.violations[:5]
        ) or "manifest head hash does not match the ledger export"
        return _fail(Exception(f"provenance check failed: {detail}"), EXIT_PROVENANCE)
    recorded = manifest.get("inputs")
    if not isinstance(recorded, dict):
        recorded = {}
    changed = [name for name, sha in simulator.input_hashes(inputs).items()
               if recorded.get(name) != sha]
    if changed:
        return _fail(Exception("provenance check failed: manifest input hash does not "
                               f"match {', '.join(changed)}"), EXIT_PROVENANCE)

    try:
        # each trip is charged the tokens it paid on the verified chain, read
        # from the same blocks that were verified; the population is
        # parsed, as `open` would decode it, from the bytes that were hashed
        persons, trips, _ = population.load_population(*(
            io.TextIOWrapper(io.BytesIO(inputs[name]), newline="")
            for name in ("population/persons.csv", "population/trips.csv")))
        addresses = {p.user_id: ledger_mod.derive_address(p.user_id) for p in persons}
        day = analytics.DayRecord(persons, trips,
                                  simulator.trip_payments(addresses, trips, chain),
                                  simulator.genesis_grants(addresses, chain))
        leftovers, trip_reports = analytics.all_reports(day)
        out_dir = Path(args.out) if args.out else run_dir / "reports"
        paths = analytics.export_reports(leftovers, trip_reports, out_dir, manifest)
    except (OSError, ValueError, population.SchemaError, population.DanglingUserRef,
            analytics.AnalyticsError) as exc:
        return _fail(exc, EXIT_INPUT_ERROR)
    print(f"wrote {len(paths)} files to {out_dir}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        chain = _read_chain(args.ledger_file)
    except (OSError, ledger_mod.ParseError) as exc:
        return _fail(exc, EXIT_INPUT_ERROR)
    report = ledger_mod.verify_chain(chain)
    if report.ok:
        print(f"ok: {report.blocks} blocks, head {report.head_hash}")
        return EXIT_OK
    for v in report.violations:
        print(f"height {v.height}: {v.kind}: {v.detail}")
    return EXIT_VERIFY_FAILED


def cmd_inspect(args) -> int:
    try:
        chain = _read_chain(args.ledger_file)
    except (OSError, ledger_mod.ParseError) as exc:
        return _fail(exc, EXIT_INPUT_ERROR)
    try:
        if args.address:
            for tx in chain.query_history(args.address):
                print(json.dumps({
                    "tx_id": tx.tx_id, "timestamp": tx.timestamp,
                    "sender": tx.sender, "receiver": tx.receiver,
                    "amount": tx.amount_text, "kind": tx.kind_text,
                    "description": tx.description,
                }))
        elif args.height is not None:
            if not 0 <= args.height < len(chain.chain):
                raise IndexError(f"height {args.height} out of range")
            print(ledger_mod.block_to_line(chain.chain[args.height]))
        elif args.tx:
            if args.tx not in chain.tx_index:
                raise KeyError(f"unknown tx {args.tx}")
            height, pos = chain.tx_index[args.tx]
            tx = chain.chain[height].txs[pos]
            print(json.dumps({"height": height, "position": pos,
                              "tx_id": tx.tx_id, "amount": tx.amount_text,
                              "kind": tx.kind_text, "sender": tx.sender,
                              "receiver": tx.receiver}))
        else:
            total_txs = sum(len(b.txs) for b in chain.chain)
            print(json.dumps({
                "blocks": len(chain.chain), "head": chain.head.block_hash,
                "transactions": total_txs,
                "minted_tokens": str(TokenAmount(chain.minted_centi)),
                "market_pool": str(chain.balance(market.MARKET_ADDRESS)),
            }))
    except (ledger_mod.UnknownAddress, IndexError, KeyError) as exc:
        return _fail(exc, EXIT_INPUT_ERROR)
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        profile = population.load_profile(args.profile)
        persons, trips = population.generate_synthetic(args.seed, args.n_users, profile)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        population.write_population(persons, trips,
                                    out / "persons.csv", out / "trips.csv")
    except (OSError, ValueError, RecursionError) as exc:
        return _fail(exc, EXIT_INPUT_ERROR)
    print(f"wrote {len(persons)} persons, {len(trips)} trips to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carbonledger",
        description="carbon-token emission trading ledger and day simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="replay a day and write artifacts")
    p_sim.add_argument("-c", "--config", help="simulation config JSON")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--active-nodes", type=int)
    p_sim.add_argument("--byzantine", action="append", metavar="N:BEHAVIOR",
                       help="mark N validators silent/equivocate/delay")
    p_sim.add_argument("--unsafe-faults", action="store_true",
                       help="allow byzantine sets beyond the 1/3 bound")
    p_sim.add_argument("--out")
    p_sim.add_argument("--profile", help="synthetic population profile JSON")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="compute the 16 token-usage reports")
    p_rep.add_argument("run_dir")
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=cmd_report)

    p_ver = sub.add_parser("verify", help="verify an exported ledger")
    p_ver.add_argument("ledger_file")
    p_ver.set_defaults(func=cmd_verify)

    p_ins = sub.add_parser("inspect", help="query an exported ledger")
    p_ins.add_argument("ledger_file")
    p_ins.add_argument("--address")
    p_ins.add_argument("--height", type=int)
    p_ins.add_argument("--tx")
    p_ins.set_defaults(func=cmd_inspect)

    p_syn = sub.add_parser("synth", help="generate a synthetic population")
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--n-users", type=int, default=200)
    p_syn.add_argument("--profile")
    p_syn.add_argument("--out", default="population")
    p_syn.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
