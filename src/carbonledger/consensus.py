"""Byzantine-fault-tolerant block selection over a simulated message network.

One round commits one block.  A rotating window of validators proposes,
every validator votes for the lowest candidate hash it saw by the proposal
deadline, and a block commits once votes from a 2/3 supermajority land.
Everything runs on a single-threaded deterministic scheduler: given the
same seed, config and pool, the delivery schedule and the committed chain
are bit-identical.

Timing model (all simulated; link delays configured in milliseconds):

* proposals go out at round start; validators vote at the proposal
  deadline, which equals the configured maximum link delay, so with zero
  drops every proposal is on time;
* a vote is counted where it arrives; a node commits when some hash
  reaches quorum among first-votes-per-voter;
* the round's commit instant is taken at the winning block's creator,
  whose own vote is free, so with honest nodes and zero drops the expected
  commit latency is
  ``max_delay + lo + (hi − lo) · (quorum − 1) / n``
  (the (quorum−1)-th order statistic of n−1 uniform link delays);
* the round times out ``2 × p99 link delay`` after the vote phase starts.

Faulty behaviors: ``silent`` nodes send nothing; ``equivocate`` nodes
propose conflicting variants to different peers and cast conflicting
votes; ``delay`` nodes send everything five times slower.  The first vote
per voter is counted, later conflicting ones are kept as evidence.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Optional, Sequence

from .ledger import (
    Block,
    Ledger,
    TokenTransaction,
    block_attestation,
    build_block,
    compute_block_hash,
    digest,
    quorum_size,
    max_faulty,
)

DELAY_FACTOR = 5.0  # slowdown applied to a `delay` node's outgoing messages


class ConsensusError(Exception):
    pass


class HeightMismatch(ConsensusError):
    pass


class UnsafeFaultConfig(ConsensusError):
    """More byzantine nodes than the safety bound without --unsafe-faults."""


class SafetyViolation(ConsensusError):
    """Two distinct blocks committed at one height; must never happen within
    the fault bound."""


class Behavior(Enum):
    SILENT = "silent"
    EQUIVOCATE = "equivocate"
    DELAY = "delay"


@dataclass(frozen=True)
class ConsensusConfig:
    n_active: int
    proposal_window: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_active < 1:
            raise ValueError("need at least one active node")
        if self.proposal_window < 1:
            raise ValueError("proposal window must be >= 1")

    @property
    def quorum(self) -> int:
        return quorum_size(self.n_active)

    @property
    def max_faulty(self) -> int:
        return max_faulty(self.n_active)


@dataclass(frozen=True)
class Vote:
    voter: str
    round: int
    block_hash: str
    attestation: str


def make_vote(voter: str, round_no: int, block_hash: str) -> Vote:
    return Vote(voter, round_no, block_hash,
                digest("vote", voter, str(round_no), block_hash))


@dataclass(frozen=True)
class NetworkModel:
    """Per-message uniform link delay, iid drops, and a byzantine set."""

    delay_ms_low: float = 10.0
    delay_ms_high: float = 20.0
    drop_probability: float = 0.0
    byzantine: Mapping[str, Behavior] = field(default_factory=dict)
    unsafe_faults: bool = False

    def __post_init__(self):
        if not (0 <= self.drop_probability < 1):
            raise ValueError("drop probability must be in [0, 1)")
        if self.delay_ms_low < 0 or self.delay_ms_high < self.delay_ms_low:
            raise ValueError("delay bounds must satisfy 0 <= lo <= hi")

    @property
    def p99_delay_ms(self) -> float:
        return self.delay_ms_low + 0.99 * (self.delay_ms_high - self.delay_ms_low)

    def check_fault_bound(self, n_active: int) -> None:
        if len(self.byzantine) > max_faulty(n_active) and not self.unsafe_faults:
            raise UnsafeFaultConfig(
                f"{len(self.byzantine)} byzantine nodes exceeds the "
                f"floor((n-1)/3) = {max_faulty(n_active)} bound; "
                "pass --unsafe-faults to run anyway"
            )

    def behavior(self, address: str) -> Optional[Behavior]:
        return self.byzantine.get(address)


@dataclass(frozen=True)
class Message:
    src: str
    dst: str
    send_time: float
    kind: str  # "proposal" | "vote"
    payload: object


@dataclass(frozen=True)
class Delivery:
    message: Message
    deliver_time: Optional[float]  # None = dropped


def simulate_network(
    messages: Sequence[Message], network: NetworkModel, rng: random.Random
) -> list[Delivery]:
    """Assign each message a delivery time or drop it.

    Deterministic given the rng state: messages are processed in the given
    order and consume draws in a fixed pattern.  Self-addressed messages
    deliver instantly and are never dropped.
    """
    out = []
    for msg in messages:
        if msg.src == msg.dst:
            out.append(Delivery(msg, msg.send_time))
            continue
        if network.drop_probability > 0 and rng.random() < network.drop_probability:
            out.append(Delivery(msg, None))
            continue
        delay_ms = rng.uniform(network.delay_ms_low, network.delay_ms_high)
        if network.behavior(msg.src) is Behavior.DELAY:
            delay_ms *= DELAY_FACTOR
        out.append(Delivery(msg, msg.send_time + delay_ms / 1000.0))
    return out


@dataclass(frozen=True)
class Decision:
    round: int
    outcome: str  # "committed" | "no_quorum" | "round_timeout"
    block_hash: Optional[str]
    votes_counted: int


def order_proposals(candidates: Sequence[Block], round_no: int,
                    config: ConsensusConfig) -> Block:
    """Deterministic leader selection: lowest block hash wins.

    Every honest node given the same candidate set picks the same block;
    the round number only rotates the proposer window upstream.
    """
    if not candidates:
        raise ValueError("no candidates")
    heights = {c.height for c in candidates}
    if len(heights) != 1:
        raise HeightMismatch(f"candidate heights differ: {sorted(heights)}")
    return min(candidates, key=lambda b: b.block_hash)


def cast_and_tally(votes: Sequence[Vote], config: ConsensusConfig) -> Decision:
    """Count at most one vote per voter (first seen) and decide.

    Adversarial inputs never fault: equivocating duplicates are ignored
    after the first, and a split vote yields ``no_quorum``.
    """
    rounds = {v.round for v in votes}
    if len(rounds) > 1:
        raise ValueError(f"votes span rounds {sorted(rounds)}")
    round_no = votes[0].round if votes else 0
    counted: dict[str, str] = {}
    tally: dict[str, int] = {}
    for vote in votes:
        if vote.voter in counted:
            continue
        counted[vote.voter] = vote.block_hash
        tally[vote.block_hash] = tally.get(vote.block_hash, 0) + 1
        if tally[vote.block_hash] >= config.quorum:
            return Decision(round_no, "committed", vote.block_hash,
                            tally[vote.block_hash])
    best = max(tally.values(), default=0)
    return Decision(round_no, "no_quorum", None, best)


@dataclass
class RoundResult:
    decision: Decision
    block: Optional[Block]
    ledger: Ledger
    commit_time: Optional[float]
    proposer: str
    fork_hashes: tuple[str, ...]
    equivocations: list[tuple[str, int, tuple[str, ...]]]
    n_messages: int
    n_dropped: int


def _equivocation_variant(pool: Sequence[TokenTransaction], creator: str,
                          head: Block) -> Optional[Block]:
    # a conflicting but internally valid proposal: drop the last transaction
    if len(pool) < 2:
        return None
    return build_block(list(pool)[:-1], creator, head)


def _proposal_valid(block: Block, ledger: Ledger) -> bool:
    """The proposal extends the ledger's head, its stored hash matches a
    recomputation and every transaction validates against the ledger."""
    head = ledger.head
    if block.height != head.height + 1 or block.prev_hash != head.block_hash:
        return False
    if block.block_hash != compute_block_hash(
        block.height, block.prev_hash, block.txs, block.creator
    ):
        return False
    accepted, _ = ledger.validate_pool(block.txs)
    return len(accepted) == len(block.txs)


def run_round(
    pool: Sequence[TokenTransaction],
    ledger: Ledger,
    network: NetworkModel,
    config: ConsensusConfig,
    rng: random.Random,
    round_no: int = 0,
    start_time: float = 0.0,
) -> RoundResult:
    """Propose, broadcast, vote and tally once; apply the block on commit.

    On ``no_quorum`` or ``round_timeout`` the input ledger is returned
    unchanged and the caller retries with the pool intact.
    """
    validators = ledger.validators
    n = len(validators)
    if n != config.n_active:
        raise ConsensusError(f"ledger has {n} validators, config says {config.n_active}")
    network.check_fault_bound(n)
    head = ledger.head

    window = min(config.proposal_window, n)
    proposers = [validators[(round_no + i) % n] for i in range(window)]
    primary = proposers[0]

    prop_deadline = start_time + network.delay_ms_high / 1000.0
    round_deadline = prop_deadline + 2 * network.p99_delay_ms / 1000.0

    # --- proposal phase ---
    messages: list[Message] = []
    proposals_by_hash: dict[str, Block] = {}
    for p in proposers:
        beh = network.behavior(p)
        if beh is Behavior.SILENT:
            continue
        block = build_block(pool, p, head)
        proposals_by_hash[block.block_hash] = block
        variant = _equivocation_variant(pool, p, head) if beh is Behavior.EQUIVOCATE else None
        if variant is not None:
            proposals_by_hash[variant.block_hash] = variant
        for i, dst in enumerate(validators):
            payload = variant if (variant is not None and i % 2 == 1) else block
            messages.append(Message(p, dst, start_time, "proposal", payload))
    prop_deliveries = simulate_network(messages, network, rng)

    candidates: dict[str, list[Block]] = {v: [] for v in validators}
    # blocks are frozen, so every delivery of one proposal object gets the
    # verdict of its first check; `prop_deliveries` keeps every payload alive
    # for the round, so no id is reused
    verdicts: dict[int, bool] = {}
    for d in prop_deliveries:
        if d.deliver_time is None or d.deliver_time > prop_deadline:
            continue
        block = d.message.payload
        if d.message.src != block.creator or block.creator not in proposers:
            continue
        valid = verdicts.get(id(block))
        if valid is None:
            valid = verdicts[id(block)] = _proposal_valid(block, ledger)
        if not valid:
            continue
        if block not in candidates[d.message.dst]:
            candidates[d.message.dst].append(block)

    # --- vote phase ---
    vote_msgs: list[Message] = []
    cast_by: set[str] = set()
    equivocations: list[tuple[str, int, tuple[str, ...]]] = []
    for v in validators:
        beh = network.behavior(v)
        if beh is Behavior.SILENT or not candidates[v]:
            continue
        choice = order_proposals(candidates[v], round_no, config)
        votes = [make_vote(v, round_no, choice.block_hash)]
        if beh is Behavior.EQUIVOCATE:
            fake = digest("equivocation", v, str(round_no))
            votes.append(make_vote(v, round_no, fake))
            equivocations.append((v, round_no, (choice.block_hash, fake)))
        cast_by.add(v)
        for vote in votes:
            for dst in validators:
                vote_msgs.append(Message(v, dst, prop_deadline, "vote", vote))
    vote_deliveries = simulate_network(vote_msgs, network, rng)

    # --- per-node tallies ---
    commits: dict[str, tuple[float, str, tuple[str, ...]]] = {}
    on_time: dict[str, list[tuple[float, Vote]]] = {v: [] for v in validators}
    any_late_or_dropped = False
    for d in vote_deliveries:
        if d.deliver_time is None or d.deliver_time > round_deadline:
            any_late_or_dropped = True
        else:
            on_time[d.message.dst].append((d.deliver_time, d.message.payload))
    max_count = 0
    for node in validators:
        arrivals = sorted(
            on_time[node],
            key=lambda item: (item[0], item[1].voter, item[1].block_hash),
        )
        counted: dict[str, str] = {}
        tally: dict[str, list[str]] = {}
        for t, vote in arrivals:
            if vote.voter in counted:
                continue
            counted[vote.voter] = vote.block_hash
            voters = tally.setdefault(vote.block_hash, [])
            voters.append(vote.voter)
            max_count = max(max_count, len(voters))
            if len(voters) >= config.quorum and node not in commits:
                commits[node] = (t, vote.block_hash, tuple(voters))

    honest_commits = {
        node: c for node, c in commits.items() if network.behavior(node) is None
    }
    fork_hashes = tuple(sorted({h for _, h, _ in honest_commits.values()}))
    if len(fork_hashes) > 1 and not network.unsafe_faults:
        raise SafetyViolation(
            f"round {round_no}: distinct commits {fork_hashes} within fault bound"
        )

    if not honest_commits:
        # no_quorum: the cast votes could never have formed a quorum, or they
        # all arrived and still split; round_timeout: deliveries were lost or late
        if len(cast_by) < config.quorum or not any_late_or_dropped:
            outcome = "no_quorum"
        else:
            outcome = "round_timeout"
        return RoundResult(
            Decision(round_no, outcome, None, max_count),
            None, ledger, None, primary, fork_hashes, equivocations,
            len(messages) + len(vote_msgs),
            sum(1 for d in prop_deliveries + vote_deliveries if d.deliver_time is None),
        )

    # anchor the commit instant at the winning block's creator when it
    # committed itself, otherwise at the earliest honest observer
    winner_hash = fork_hashes[0]
    if len(fork_hashes) == 1:
        anchor_items = [
            (t, node, voters) for node, (t, h, voters) in honest_commits.items()
            if h == winner_hash
        ]
    else:  # unsafe demonstration run: earliest commit wins the accounting
        earliest = min(honest_commits.items(), key=lambda kv: kv[1][0])
        winner_hash = earliest[1][1]
        anchor_items = [(earliest[1][0], earliest[0], earliest[1][2])]
    block = proposals_by_hash.get(winner_hash)
    if block is None:  # fabricated hash won in an unsafe run: nothing to apply
        return RoundResult(
            Decision(round_no, "no_quorum", None, max_count),
            None, ledger, None, primary, fork_hashes, equivocations,
            len(messages) + len(vote_msgs),
            sum(1 for d in prop_deliveries + vote_deliveries if d.deliver_time is None),
        )
    leader_pick = [it for it in anchor_items if it[1] == block.creator]
    commit_time, _, quorum_voters = (
        leader_pick[0] if leader_pick else min(anchor_items)
    )

    final = replace(
        block,
        signatures=tuple(sorted(
            (addr, block_attestation(addr, winner_hash)) for addr in quorum_voters
        )),
    )
    new_ledger = ledger.apply_block(final)
    decision = Decision(round_no, "committed", winner_hash, len(quorum_voters))
    return RoundResult(
        decision, final, new_ledger, commit_time, primary, fork_hashes, equivocations,
        len(messages) + len(vote_msgs),
        sum(1 for d in prop_deliveries + vote_deliveries if d.deliver_time is None),
    )


@dataclass
class TraceRow:
    round: int
    proposer: str
    block_hash: str
    votes: int
    outcome: str
    latency_ms: float


class ConsensusEngine:
    """Sequences rounds over one chain: retries on timeout, keeps a trace."""

    def __init__(self, config: ConsensusConfig, network: NetworkModel,
                 rng: Optional[random.Random] = None):
        self.config = config
        self.network = network
        self.rng = rng if rng is not None else random.Random(config.rng_seed)
        self.round_no = 0
        self.trace: list[TraceRow] = []
        self.equivocations: list[tuple[str, int, tuple[str, ...]]] = []

    def run_until_commit(
        self,
        pool: Sequence[TokenTransaction],
        ledger: Ledger,
        submit_time: float,
        max_retries: int = 3,
    ) -> tuple[Optional[RoundResult], Ledger, float]:
        """Run rounds until the pool commits or retries are exhausted.

        Returns (committed result or None, ledger, time after the attempt).
        """
        start = submit_time
        for _ in range(max_retries):
            result = run_round(
                pool, ledger, self.network, self.config, self.rng,
                round_no=self.round_no, start_time=start,
            )
            self.round_no += 1
            self.equivocations.extend(result.equivocations)
            latency_ms = (
                (result.commit_time - submit_time) * 1000.0
                if result.commit_time is not None else
                (self._round_deadline(start) - submit_time) * 1000.0
            )
            self.trace.append(TraceRow(
                result.decision.round, result.proposer,
                result.decision.block_hash or "", result.decision.votes_counted,
                result.decision.outcome, round(latency_ms, 6),
            ))
            if result.decision.outcome == "committed":
                return result, result.ledger, result.commit_time
            start = self._round_deadline(start)
        return None, ledger, start

    def _round_deadline(self, start: float) -> float:
        return (start + self.network.delay_ms_high / 1000.0
                + 2 * self.network.p99_delay_ms / 1000.0)


# --- fault scenario file ------------------------------------------------------


@dataclass(frozen=True)
class FaultScenario:
    n_active: int
    delays_ms: tuple[float, float]
    drop_probability: float
    byzantine: tuple[tuple[int, Behavior], ...]  # (validator index, behavior)
    seed: int


def load_fault_scenario(text: str) -> FaultScenario:
    """Parse the JSON scenario format:
    {"n_active": 4, "delays_ms": [10, 20], "drop_probability": 0.0,
     "byzantine": [{"node": 1, "behavior": "equivocate"}], "seed": 7}
    """
    obj = json.loads(text)
    return FaultScenario(
        n_active=int(obj["n_active"]),
        delays_ms=(float(obj["delays_ms"][0]), float(obj["delays_ms"][1])),
        drop_probability=float(obj.get("drop_probability", 0.0)),
        byzantine=tuple(
            (int(b["node"]), Behavior(b["behavior"]))
            for b in obj.get("byzantine", [])
        ),
        seed=int(obj.get("seed", 0)),
    )


def export_trace(rows: Sequence[TraceRow]) -> str:
    """CSV `round,proposer,block_hash,votes,outcome,latency_ms`."""
    lines = ["round,proposer,block_hash,votes,outcome,latency_ms"]
    for r in rows:
        lines.append(f"{r.round},{r.proposer},{r.block_hash},{r.votes},"
                     f"{r.outcome},{r.latency_ms}")
    return "\n".join(lines) + "\n"
