"""Byzantine-fault-tolerant block selection over a simulated message network.

One round commits one block.  A single proposer, rotating with the round
number, proposes; every validator votes for the proposal it received by the
proposal deadline, and a block commits once votes from a 2/3 supermajority
land.  Everything runs on a single-threaded deterministic scheduler: given
the same seed, config and pool, the delivery schedule and the committed
chain are bit-identical.

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

import random
from dataclasses import dataclass, field
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
    with_signatures,
)

DELAY_FACTOR = 5.0  # slowdown applied to a `delay` node's outgoing messages


class ConsensusError(Exception):
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
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_active < 1:
            raise ValueError("need at least one active node")

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

    def deadlines(self, start: float) -> tuple[float, float]:
        """(proposal deadline, round deadline) of a round started at `start`."""
        proposal = start + self.delay_ms_high / 1000.0
        return proposal, proposal + 2 * self.p99_delay_ms / 1000.0

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


@dataclass(frozen=True)
class Tally:
    """One node's count of the votes that reached it."""

    commit_time: Optional[float]  # arrival of the vote that made a quorum
    block_hash: Optional[str]  # the first hash to reach quorum, if any
    voters: tuple[str, ...]  # that hash's voters at that instant, in arrival order
    best: int  # the largest count any hash reached, counting on past quorum


def tally_votes(arrivals: Sequence[tuple[float, Vote]], quorum: int) -> Tally:
    """Count the first vote per voter, in arrival order, and find quorum.

    Ties in arrival time are broken by voter and then by hash.  Adversarial
    inputs never fault: an equivocator's later votes are ignored, and a
    split vote yields no hash.
    """
    counted: set[str] = set()
    tally: dict[str, list[str]] = {}
    commit: tuple[Optional[float], Optional[str], tuple[str, ...]] = (None, None, ())
    best = 0
    for t, vote in sorted(arrivals, key=lambda item: (item[0], item[1].voter,
                                                      item[1].block_hash)):
        if vote.voter in counted:
            continue
        counted.add(vote.voter)
        voters = tally.setdefault(vote.block_hash, [])
        voters.append(vote.voter)
        best = max(best, len(voters))
        if len(voters) >= quorum and commit[1] is None:
            commit = (t, vote.block_hash, tuple(voters))
    return Tally(*commit, best)


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
    proposer = validators[round_no % n]
    prop_deadline, round_deadline = network.deadlines(start_time)

    # --- proposal phase: an equivocating proposer sends every other
    # validator a conflicting variant ---
    messages: list[Message] = []
    proposals: dict[str, Block] = {}
    beh = network.behavior(proposer)
    if beh is not Behavior.SILENT:
        block = build_block(pool, proposer, head)
        variant = (_equivocation_variant(pool, proposer, head)
                   if beh is Behavior.EQUIVOCATE else None)
        proposals = {b.block_hash: b for b in (block, variant) if b is not None}
        for i, dst in enumerate(validators):
            payload = variant if (variant is not None and i % 2 == 1) else block
            messages.append(Message(proposer, dst, start_time, "proposal", payload))
    prop_deliveries = simulate_network(messages, network, rng)

    # each validator receives at most one proposal; each distinct proposal is
    # checked once however many validators receive it
    candidate: dict[str, Block] = {}
    verdicts: dict[str, bool] = {}
    for d in prop_deliveries:
        if d.deliver_time is None or d.deliver_time > prop_deadline:
            continue
        block = d.message.payload
        valid = verdicts.get(block.block_hash)
        if valid is None:
            valid = verdicts[block.block_hash] = _proposal_valid(block, ledger)
        if valid:
            candidate[d.message.dst] = block

    # --- vote phase ---
    vote_msgs: list[Message] = []
    n_voters = 0
    equivocations: list[tuple[str, int, tuple[str, ...]]] = []
    for v in validators:
        beh = network.behavior(v)
        if beh is Behavior.SILENT or v not in candidate:
            continue
        choice = candidate[v].block_hash
        votes = [make_vote(v, round_no, choice)]
        if beh is Behavior.EQUIVOCATE:
            fake = digest("equivocation", v, str(round_no))
            votes.append(make_vote(v, round_no, fake))
            equivocations.append((v, round_no, (choice, fake)))
        n_voters += 1
        for vote in votes:
            for dst in validators:
                vote_msgs.append(Message(v, dst, prop_deadline, "vote", vote))
    vote_deliveries = simulate_network(vote_msgs, network, rng)

    # --- per-node tallies ---
    on_time: dict[str, list[tuple[float, Vote]]] = {v: [] for v in validators}
    any_late_or_dropped = False
    for d in vote_deliveries:
        if d.deliver_time is None or d.deliver_time > round_deadline:
            any_late_or_dropped = True
        else:
            on_time[d.message.dst].append((d.deliver_time, d.message.payload))
    honest_commits: dict[str, Tally] = {}
    max_count = 0
    for node in validators:
        tally = tally_votes(on_time[node], config.quorum)
        max_count = max(max_count, tally.best)
        if tally.block_hash is not None and network.behavior(node) is None:
            honest_commits[node] = tally

    fork_hashes = tuple(sorted({c.block_hash for c in honest_commits.values()}))
    if len(fork_hashes) > 1 and not network.unsafe_faults:
        raise SafetyViolation(
            f"round {round_no}: distinct commits {fork_hashes} within fault bound"
        )

    # no_quorum: the cast votes could never have formed a quorum, they all
    # arrived and still split, or a fabricated hash won in an unsafe run;
    # round_timeout: deliveries were lost or late
    outcome, block, anchor = "no_quorum", None, None
    if not honest_commits:
        if n_voters >= config.quorum and any_late_or_dropped:
            outcome = "round_timeout"
    else:
        if len(fork_hashes) == 1:
            anchors = honest_commits
        else:  # unsafe demonstration run: earliest commit wins the accounting
            node = min(honest_commits, key=lambda k: honest_commits[k].commit_time)
            anchors = {node: honest_commits[node]}
        block = proposals.get(next(iter(anchors.values())).block_hash)
        if block is not None:
            # the commit instant is taken at the winning block's creator when
            # it committed itself, otherwise at the earliest honest observer
            anchor = anchors.get(block.creator) or min(
                anchors.items(), key=lambda kv: (kv[1].commit_time, kv[0], kv[1].voters))[1]

    final, new_ledger = None, ledger
    if anchor is None:
        decision = Decision(round_no, outcome, None, max_count)
    else:
        final = with_signatures(block, (
            (addr, block_attestation(addr, block.block_hash)) for addr in anchor.voters))
        new_ledger = ledger.apply_block(final)
        decision = Decision(round_no, "committed", block.block_hash, len(anchor.voters))
    return RoundResult(
        decision, final, new_ledger, None if anchor is None else anchor.commit_time,
        proposer, fork_hashes, equivocations, len(messages) + len(vote_msgs),
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
            _, deadline = self.network.deadlines(start)
            latency_ms = (
                (result.commit_time - submit_time) * 1000.0
                if result.commit_time is not None else
                (deadline - submit_time) * 1000.0
            )
            self.trace.append(TraceRow(
                result.decision.round, result.proposer,
                result.decision.block_hash or "", result.decision.votes_counted,
                result.decision.outcome, round(latency_ms, 6),
            ))
            if result.decision.outcome == "committed":
                return result, result.ledger, result.commit_time
            start = deadline
        return None, ledger, start


def export_trace(rows: Sequence[TraceRow]) -> str:
    """CSV `round,proposer,block_hash,votes,outcome,latency_ms`."""
    lines = ["round,proposer,block_hash,votes,outcome,latency_ms"]
    for r in rows:
        lines.append(f"{r.round},{r.proposer},{r.block_hash},{r.votes},"
                     f"{r.outcome},{r.latency_ms}")
    return "\n".join(lines) + "\n"
