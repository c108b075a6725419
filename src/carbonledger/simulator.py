"""Full-day trip replay through emissions, market, ledger and consensus.

One deterministic event loop per run: the genesis block mints the day's
grants at 00:00, then each trip settles at its completion time and goes
through a consensus round (one round per settlement by default, batching
configurable).  The simulated clock never conflates with wall time: all
latency figures are simulated-network milliseconds.

Identical (seed, config, inputs) produce an identical final ledger hash
and byte-identical exports.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import (Mapping, Optional, Sequence, Union, get_args, get_origin,
                    get_type_hints)

from .consensus import (
    Behavior,
    ConsensusEngine,
    NetworkModel,
    TraceRow,
    export_equivocations,
    export_trace,
)
from .emissions import (
    BusChargingPolicy,
    EmissionFactorTable,
    PER_SEAT_MODES,
    PricePolicy,
    TripRecord,
    trip_cost,
)
from .ledger import (
    HASH_ALGORITHM,
    Ledger,
    Overlay,
    TokenTransaction,
    TxKind,
    _tx_to_obj,
    create_genesis,
    derive_address,
    export_chain,
    export_wallets,
    fold_transaction,
)
from .market import (
    CapPolicy,
    Market,
    compute_cap,
    operator_remainder,
)
from .population import (
    RejectedRow,
    SurveyPerson,
    generate_synthetic,
    load_population,
    load_profile,
    write_population,
)
from .tokens import TokenAmount, TokenValueError, total

MINUTES_PER_DAY = 1440

# (first round, last round, last outcome, txs) of a pool no round committed
FailedPool = tuple[int, int, str, tuple[TokenTransaction, ...]]


def child_seed(seed: int, label: str) -> int:
    """Stable sub-stream seed so independent components never share draws."""
    h = hashlib.sha256(f"{seed}|{label}".encode()).digest()
    return int.from_bytes(h[:8], "big") >> 1


def _fits(value, hint) -> bool:
    """Whether a parsed JSON value has the shape of a type annotation."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return any(_fits(value, arg) for arg in args)
    if origin is tuple:  # written as a JSON array
        if type(value) is not list:
            return False
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        return len(value) == len(items) and all(map(_fits, value, items))
    if hint is float:
        return type(value) in (int, float)
    return type(value) is hint  # so true and false are not integers


@dataclass
class SimulationConfig:
    seed: int = 0
    n_active_nodes: int = 4
    delays_ms: tuple[float, float] = (10.0, 20.0)
    drop_probability: float = 0.0
    byzantine: tuple[tuple[int, str], ...] = ()  # (validator index, behavior)
    unsafe_faults: bool = False
    price_cad_per_tonne: float = 20.0
    seats_per_bus: float = 50.55
    operator_pays_remainder: bool = False
    cap_tokens: Optional[str] = None  # None: the sum of the day's trip costs
    initial_pool_tokens: Optional[str] = None
    persons_file: Optional[str] = None
    trips_file: Optional[str] = None
    factors_file: Optional[str] = None
    profile_file: Optional[str] = None
    synthetic_users: int = 200
    batch_window: int = 1
    max_round_retries: int = 3
    out_dir: Optional[str] = None

    @classmethod
    def from_json(cls, text: str) -> "SimulationConfig":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("config is not a JSON object")
        hints = get_type_hints(cls)
        unknown = set(obj) - set(hints)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for name, value in obj.items():
            if not _fits(value, hints[name]):
                raise ValueError(f"config field {name!r} must match "
                                 f"{cls.__annotations__[name]}, got {value!r}")
        cfg = cls(**obj)
        cfg.delays_ms = (float(cfg.delays_ms[0]), float(cfg.delays_ms[1]))
        cfg.byzantine = tuple((i, b) for i, b in cfg.byzantine)
        return cfg

    def to_canonical_json(self) -> str:
        obj = asdict(self)
        obj["delays_ms"] = list(self.delays_ms)
        obj["byzantine"] = [list(b) for b in self.byzantine]
        obj.pop("out_dir")  # where artifacts land does not define the run
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_canonical_json().encode()).hexdigest()


@dataclass
class SimulationResult:
    config: SimulationConfig
    ledger: Ledger
    persons: list[SurveyPerson]
    trips: list[TripRecord]
    trip_costs: dict[str, tuple[float, TokenAmount]]  # trip_id -> (grams, tokens) priced
    trip_payments: dict[str, TokenAmount]  # trip_id -> tokens paid on chain
    grants: dict[str, TokenAmount]  # user_id -> grant
    user_addresses: dict[str, str]  # user_id -> ledger address
    cap: TokenAmount
    latencies_ms: list[float]
    submitted: int
    committed: int
    tx_per_minute: list[int]
    consensus_trace: list[TraceRow]
    equivocations: list[tuple[str, int, tuple[str, ...]]]  # (voter, round, hashes)
    failed_pools: list[FailedPool]
    rejects: list[RejectedRow]

    @property
    def throughput(self) -> Optional[float]:
        if self.submitted == 0:
            return None
        return self.committed / self.submitted


@dataclass
class MetricsReport:
    submitted: int
    committed: int
    throughput: Optional[float]
    latency_mean_ms: Optional[float]
    latency_std_ms: Optional[float]
    mean_tx_per_minute: float
    tx_per_minute: list[int]

    def to_json(self) -> str:
        obj = asdict(self)
        obj["note"] = ("latencies are simulated-network milliseconds; "
                       "throughput n/a when nothing was submitted")
        return json.dumps(obj, indent=2, sort_keys=True)


def collect_metrics(result: SimulationResult) -> MetricsReport:
    """Simulated-time performance figures, hardware independent."""
    lat = result.latencies_ms
    return MetricsReport(
        submitted=result.submitted,
        committed=result.committed,
        throughput=result.throughput,
        latency_mean_ms=statistics.fmean(lat) if lat else None,
        latency_std_ms=statistics.stdev(lat) if len(lat) > 1 else None,
        mean_tx_per_minute=result.committed / MINUTES_PER_DAY,
        tx_per_minute=result.tx_per_minute,
    )


def _settlement_description(trip: TripRecord) -> str:
    if trip.mode in PER_SEAT_MODES:
        vehicle = "fleet-bus"
    else:
        vehicle = f"veh-{trip.user_id}"
    return f"trip:{trip.trip_id};mode:{trip.mode.value};vehicle:{vehicle}"


def genesis_grants(user_addresses: Mapping[str, str], chain: Ledger) -> dict[str, TokenAmount]:
    """Each user's grant as minted at genesis, given user_id -> ledger
    address; zero for anyone genesis skips."""
    grants = {uid: TokenAmount.zero() for uid in user_addresses}
    user_of = {a: uid for uid, a in user_addresses.items()}
    for height, _, receiver, _, amount in chain.transfers(TxKind.ALLOCATION):
        if height == 0 and receiver in user_of:
            grants[user_of[receiver]] = amount
    return grants


def trip_payments(user_addresses: Mapping[str, str], trips: Sequence[TripRecord],
                  chain: Ledger) -> dict[str, TokenAmount]:
    """Each trip's tokens paid on chain, by trip id: its user's committed trip
    payment with the trip's settlement description, or zero if none."""
    paid = {(sender, description): amount
            for _, sender, _, description, amount in chain.transfers(TxKind.TRIP_PAYMENT)}
    zero = TokenAmount.zero()
    return {t.trip_id: paid.get((user_addresses[t.user_id], _settlement_description(t)), zero)
            for t in trips}


def _config_tokens(config: SimulationConfig, name: str) -> Optional[TokenAmount]:
    """A token field of the config, which must be written as the ledger
    export writes amounts and must not be negative."""
    value = getattr(config, name)
    if value is None:
        return None
    try:
        amount = TokenAmount.parse(value)
    except TokenValueError as exc:
        raise ValueError(f"config field {name!r} must be a token amount "
                         f"such as '12.34', got {value!r}") from exc
    if amount.centi < 0:
        raise ValueError(f"config field {name!r} must not be negative, got {value!r}")
    return amount


def run(config: SimulationConfig, out_dir: Optional[str | Path] = None) -> SimulationResult:
    """Replay one simulated day; aborts export a partial ledger for autopsy."""
    for name in ("n_active_nodes", "max_round_retries", "batch_window"):
        if getattr(config, name) < 1:
            raise ValueError(f"config field {name!r} must be at least 1, "
                             f"got {getattr(config, name)}")
    cap_given, pool_given = (_config_tokens(config, name)
                             for name in ("cap_tokens", "initial_pool_tokens"))
    if bool(config.persons_file) != bool(config.trips_file):
        given, missing = (("persons_file", "trips_file") if config.persons_file
                          else ("trips_file", "persons_file"))
        raise ValueError(f"config field {missing!r} must be set with {given!r}")
    out_path = Path(out_dir) if out_dir else (
        Path(config.out_dir) if config.out_dir else None
    )

    # inputs
    if config.persons_file:
        persons, trips, rejects = load_population(config.persons_file, config.trips_file)
    else:
        profile = load_profile(config.profile_file)
        persons, trips = generate_synthetic(
            child_seed(config.seed, "population"), config.synthetic_users, profile
        )
        rejects = []

    # per-trip costs, the day's cap and the market pool
    table = (EmissionFactorTable.from_csv(Path(config.factors_file).read_text())
             if config.factors_file else EmissionFactorTable.default())
    price = PricePolicy(config.price_cad_per_tonne)
    bus_policy = BusChargingPolicy(config.seats_per_bus)
    trip_costs = {t.trip_id: trip_cost(t, table, bus_policy, price) for t in trips}
    cap_policy = compute_cap(trip_costs) if cap_given is None else CapPolicy(cap=cap_given)
    cap = cap_policy.cap
    if pool_given is not None:
        initial_pool = pool_given
    elif config.operator_pays_remainder:
        # user purchases total at most the cap; the operator also draws every
        # bus trip's empty seats
        initial_pool = cap + total(
            operator_remainder(float(t.passengers), trip_costs[t.trip_id][1], bus_policy)[1]
            for t in trips if t.mode in PER_SEAT_MODES)
    else:
        initial_pool = None

    # addresses and genesis
    user_addresses = {p.user_id: derive_address(p.user_id) for p in persons}
    validators = [derive_address(f"validator-{i}") for i in range(config.n_active_nodes)]
    market = Market()
    genesis_txs = market.genesis_transactions(
        list(user_addresses.values()), cap_policy, initial_pool
    )
    ledger = create_genesis(validators, genesis_txs)

    grants = genesis_grants(user_addresses, ledger)

    # consensus
    byz = {}
    for index, behavior in config.byzantine:
        if not 0 <= index < len(validators):
            raise ValueError(f"byzantine index {index} out of range")
        byz[validators[index]] = Behavior(behavior)
    network = NetworkModel(
        delay_ms_low=config.delays_ms[0],
        delay_ms_high=config.delays_ms[1],
        drop_probability=config.drop_probability,
        byzantine=byz,
        unsafe_faults=config.unsafe_faults,
    )
    network.check_fault_bound(config.n_active_nodes)
    engine = ConsensusEngine(network, random.Random(child_seed(config.seed, "network")))

    latencies: list[float] = []
    failed_pools: list[FailedPool] = []
    tx_per_minute = [0] * MINUTES_PER_DAY
    submitted = 0
    committed = 0
    sim_time = 0.0

    def flush(batch: list[tuple[TokenTransaction, float]]) -> None:
        nonlocal ledger, sim_time, submitted, committed
        if not batch:
            return
        pool = [tx for tx, _ in batch]
        submit_times = {tx.tx_id: at for tx, at in batch}
        submitted += len(pool)
        start = max(sim_time, max(submit_times.values()))
        first = len(engine.trace)
        result, ledger, sim_time = engine.run_until_commit(
            pool, ledger, start, max_retries=config.max_round_retries
        )
        if result is None:
            rounds = engine.trace[first:]
            failed_pools.append((rounds[0].round, rounds[-1].round, rounds[-1].outcome,
                                 tuple(pool)))
            return
        committed += len(pool)
        for tx in pool:
            latencies.append((result.commit_time - submit_times[tx.tx_id]) * 1000.0)
            minute = min(MINUTES_PER_DAY - 1, max(0, int(result.commit_time // 60)))
            tx_per_minute[minute] += 1

    try:
        batch: list[tuple[TokenTransaction, float]] = []
        view = Overlay(ledger.balances)
        for trip in sorted(trips, key=lambda t: (t.end_time, t.trip_id)):
            _, cost = trip_costs[trip.trip_id]
            txs = market.settle_trip(
                user_addresses[trip.user_id], cost, view,
                now=trip.end_time, description=_settlement_description(trip),
            )
            if config.operator_pays_remainder:
                op_tx = market.operator_settlement(
                    trip, float(trip.passengers), cost, bus_policy, view,
                    now=trip.end_time + 0.002,
                )
                if op_tx is not None:
                    txs.append(op_tx)
            if not txs:
                continue
            for tx in txs:
                fold_transaction(view, tx)
            batch.extend((tx, trip.end_time) for tx in txs)
            if len(batch) >= config.batch_window:
                flush(batch)
                batch = []
                view = Overlay(ledger.balances)
        flush(batch)
    except Exception:
        if out_path is not None:
            out_path.mkdir(parents=True, exist_ok=True)
            with open(out_path / "ledger.partial.ndjson", "w", encoding="utf-8") as fh:
                export_chain(ledger, fh)
        raise

    result = SimulationResult(
        config=config,
        ledger=ledger,
        persons=persons,
        trips=trips,
        trip_costs=trip_costs,
        trip_payments=trip_payments(user_addresses, trips, ledger),
        grants=grants,
        user_addresses=user_addresses,
        cap=cap,
        latencies_ms=latencies,
        submitted=submitted,
        committed=committed,
        tx_per_minute=tx_per_minute,
        consensus_trace=engine.trace,
        equivocations=engine.equivocations,
        failed_pools=failed_pools,
        rejects=rejects,
    )
    if out_path is not None:
        write_artifacts(result, out_path)
    return result


# the population `report` reads and the config the chain was made under, hashed
# into the manifest so that `report` can refuse inputs changed after the run
REPORT_INPUTS = ("population/persons.csv", "population/trips.csv", "run_config.json")


def read_report_inputs(run_dir: Path) -> dict[str, bytes]:
    """The bytes of each of the run directory's `REPORT_INPUTS`, each file
    read once, so that what is hashed is what is parsed."""
    return {name: (run_dir / name).read_bytes() for name in REPORT_INPUTS}


def input_hashes(inputs: Mapping[str, bytes]) -> dict[str, str]:
    """sha256 of each file's bytes, by name."""
    return {name: hashlib.sha256(data).hexdigest() for name, data in inputs.items()}


def export_failed_pools(pools: Sequence[FailedPool]) -> str:
    """CSV `first_round,last_round,last_outcome,tx_ids` of the pools no round
    committed, each pool's tx ids joined by `;`."""
    lines = ["first_round,last_round,last_outcome,tx_ids"]
    lines += [f"{first},{last},{outcome},{';'.join(tx.tx_id for tx in txs)}"
              for first, last, outcome, txs in pools]
    return "\n".join(lines) + "\n"


def export_failed_txs(pools: Sequence[FailedPool]) -> str:
    """NDJSON of the failed pools' transactions, pool by pool, one per line in
    the ledger export's transaction form."""
    return "".join(json.dumps(_tx_to_obj(tx), separators=(",", ":")) + "\n"
                   for *_, txs in pools for tx in txs)


def write_artifacts(result: SimulationResult, out_dir: str | Path) -> None:
    """Ledger export, wallet snapshot, metrics, trace, equivocation evidence,
    failed pools and their transactions, population and a manifest that
    hashes the report inputs."""
    out = Path(out_dir)
    (out / "population").mkdir(parents=True, exist_ok=True)
    with open(out / "ledger.ndjson", "w", encoding="utf-8") as fh:
        export_chain(result.ledger, fh)
    (out / "wallets.csv").write_text(export_wallets(result.ledger))
    (out / "metrics.json").write_text(collect_metrics(result).to_json() + "\n")
    (out / "consensus_trace.csv").write_text(export_trace(result.consensus_trace))
    (out / "equivocations.csv").write_text(export_equivocations(result.equivocations))
    (out / "failed_pools.csv").write_text(export_failed_pools(result.failed_pools))
    (out / "failed_txs.ndjson").write_text(export_failed_txs(result.failed_pools))
    write_population(result.persons, result.trips,
                     out / "population" / "persons.csv",
                     out / "population" / "trips.csv")
    (out / "run_config.json").write_text(result.config.to_canonical_json() + "\n")
    if result.rejects:
        lines = ["file,row,column,reason"]
        for r in result.rejects:
            reason = r.reason.replace('"', "'")
            lines.append(f'{r.file},{r.row},{r.column},"{reason}"')
        (out / "rejects.csv").write_text("\n".join(lines) + "\n")
    manifest = {
        "seed": result.config.seed,
        "config_hash": result.config.config_hash(),
        "ledger_head": result.ledger.head.block_hash,
        "hash_algorithm": HASH_ALGORITHM,
        "inputs": input_hashes(read_report_inputs(out)),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
