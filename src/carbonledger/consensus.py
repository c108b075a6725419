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

Draw order: each round calls `simulate_network` twice, for the proposals
and then the votes, and both calls draw from the one round rng.  The
proposer's sends go out in validator order.  The votes go out voter by
voter in validator order; an equivocator's chosen hash goes before its
fabricated one, and each vote goes to every validator in validator order.
A send to another node takes one ``rng.random()`` drop draw, only when the
drop probability is above zero, and, if it is not dropped, one delay draw
``lo + (hi − lo) · rng.random()`` (what ``random.uniform`` computes).  A
send to oneself takes no draw and arrives at once.

Faulty behaviors: ``silent`` nodes send nothing; ``equivocate`` nodes
propose conflicting variants to different peers and cast conflicting
votes; ``delay`` nodes send everything five times slower.  The first vote
per voter is counted, later conflicting ones are kept as evidence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple, Optional, Sequence

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
    """Two distinct blocks committed at one height; must never happen."""


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


def simulate_network(
    sends: Sequence[tuple[str, str, float]], network: NetworkModel, rng: random.Random
) -> list[Optional[float]]:
    """Each ``(src, dst, send_time)`` send's arrival time, or None if dropped.

    Deterministic given the rng state: sends are processed in the given
    order and consume draws as the module docstring states.
    """
    lo, span = network.delay_ms_low, network.delay_ms_high - network.delay_ms_low
    drop = network.drop_probability
    slow = {a for a, b in network.byzantine.items() if b is Behavior.DELAY}
    draw = rng.random
    out: list[Optional[float]] = []
    for src, dst, send_time in sends:
        if src == dst:
            out.append(send_time)
        elif drop > 0 and draw() < drop:
            out.append(None)
        else:
            delay_ms = lo + span * draw()
            if src in slow:
                delay_ms *= DELAY_FACTOR
            out.append(send_time + delay_ms / 1000.0)
    return out


@dataclass(frozen=True)
class Decision:
    round: int
    outcome: str  # "committed" | "no_quorum" | "round_timeout"
    block_hash: Optional[str]
    votes_counted: int


class Tally(NamedTuple):
    """One node's count of the votes that reached it."""

    commit_time: Optional[float]  # arrival of the vote that made a quorum
    block_hash: Optional[str]  # the first hash to reach quorum, if any
    voters: tuple[str, ...]  # that hash's voters at that instant, in arrival order
    best: int  # the largest count any hash reached, counting on past quorum


def tally_votes(arrivals: Sequence[tuple[float, str, str]], quorum: int) -> Tally:
    """Count the first vote per voter, in arrival order, and find quorum.

    `arrivals` holds ``(time, voter, hash)`` triples; ties in arrival time
    are broken by voter and then by hash.  Adversarial inputs never fault:
    an equivocator's later votes are ignored, and a split vote yields no
    hash.
    """
    counted: set[str] = set()
    tally: dict[str, list[str]] = {}
    commit: tuple[Optional[float], Optional[str], tuple[str, ...]] = (None, None, ())
    best = 0
    for t, voter, block_hash in sorted(arrivals):
        if voter in counted:
            continue
        counted.add(voter)
        voters = tally.get(block_hash)
        if voters is None:
            voters = tally[block_hash] = []
        voters.append(voter)
        if len(voters) > best:
            best = len(voters)
            if best >= quorum and commit[1] is None:
                commit = (t, block_hash, tuple(voters))
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
    byzantine = network.byzantine
    head = ledger.head
    proposer = validators[round_no % n]
    prop_deadline, round_deadline = network.deadlines(start_time)

    # --- proposal phase: an equivocating proposer sends every other
    # validator a conflicting variant ---
    prop_sends: list[tuple[str, str, float]] = []
    payloads: list[Block] = []
    proposals: dict[str, Block] = {}
    beh = byzantine.get(proposer)
    if beh is not Behavior.SILENT:
        block = build_block(pool, proposer, head)
        variant = (_equivocation_variant(pool, proposer, head)
                   if beh is Behavior.EQUIVOCATE else None)
        proposals = {b.block_hash: b for b in (block, variant) if b is not None}
        payloads = [variant if (variant is not None and i % 2 == 1) else block
                    for i in range(n)]
        prop_sends = [(proposer, dst, start_time) for dst in validators]
    prop_arrivals = simulate_network(prop_sends, network, rng)
    n_dropped = prop_arrivals.count(None)

    # each validator receives at most one proposal; each distinct proposal is
    # checked once however many validators receive it
    candidate: dict[str, Block] = {}
    verdicts: dict[str, bool] = {}
    for dst, block, t in zip(validators, payloads, prop_arrivals):
        if t is None or t > prop_deadline:
            continue
        valid = verdicts.get(block.block_hash)
        if valid is None:
            valid = verdicts[block.block_hash] = _proposal_valid(block, ledger)
        if valid:
            candidate[dst] = block

    # --- vote phase: each cast (voter, hash) goes to every validator ---
    cast: list[tuple[str, str]] = []
    n_voters = 0
    equivocations: list[tuple[str, int, tuple[str, ...]]] = []
    for v in validators:
        beh = byzantine.get(v)
        if beh is Behavior.SILENT or v not in candidate:
            continue
        choice = candidate[v].block_hash
        cast.append((v, choice))
        if beh is Behavior.EQUIVOCATE:
            fake = digest("equivocation", v, str(round_no))
            cast.append((v, fake))
            equivocations.append((v, round_no, (choice, fake)))
        n_voters += 1
    vote_arrivals = simulate_network(
        [(v, dst, prop_deadline) for v, _ in cast for dst in validators], network, rng)

    # --- per-node tallies over the on-time arrivals: the sends are voter
    # by voter, so node j's arrivals are every n-th entry from j ---
    inboxes = [[(t, voter, block_hash)
                for (voter, block_hash), t in zip(cast, vote_arrivals[j::n])
                if t is not None and t <= round_deadline] for j in range(n)]
    n_dropped += vote_arrivals.count(None)
    late_or_dropped = sum(map(len, inboxes)) < len(vote_arrivals)
    honest_commits: dict[str, Tally] = {}
    max_count = 0
    for node, inbox in zip(validators, inboxes):
        tally = tally_votes(inbox, config.quorum)
        max_count = max(max_count, tally.best)
        if tally.block_hash is not None and node not in byzantine:
            honest_commits[node] = tally

    # Safety, whatever `unsafe_faults` says: an equivocating proposer's two
    # variants go to disjoint voter sets and 2·ceil(2n/3) > n, so at most one
    # of them reaches quorum; each fabricated vote hash has one voter, so it
    # reaches quorum only when n = 1, and then its one node is not honest.
    # Every honest commit is therefore one hash, and that hash was proposed.
    fork_hashes = tuple(sorted({c.block_hash for c in honest_commits.values()}))
    if len(fork_hashes) > 1:
        raise SafetyViolation(f"round {round_no}: distinct commits {fork_hashes}")

    final, new_ledger, commit_time = None, ledger, None
    if not honest_commits:
        # round_timeout: a quorum was cast but votes were lost or late;
        # no_quorum: the cast votes could never have formed one, or split
        outcome = ("round_timeout" if n_voters >= config.quorum and late_or_dropped
                   else "no_quorum")
        decision = Decision(round_no, outcome, None, max_count)
    else:
        block = proposals[fork_hashes[0]]
        # the commit instant is taken at the winning block's creator when it
        # committed itself, otherwise at the earliest honest observer
        anchor = honest_commits.get(block.creator) or min(
            honest_commits.items(),
            key=lambda kv: (kv[1].commit_time, kv[0], kv[1].voters))[1]
        final = with_signatures(block, (
            (addr, block_attestation(addr, block.block_hash)) for addr in anchor.voters))
        new_ledger = ledger.apply_block(final)
        commit_time = anchor.commit_time
        decision = Decision(round_no, "committed", block.block_hash, len(anchor.voters))
    return RoundResult(
        decision, final, new_ledger, commit_time, proposer, fork_hashes, equivocations,
        len(prop_sends) + len(vote_arrivals), n_dropped,
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


def export_equivocations(evidence: Sequence[tuple[str, int, tuple[str, ...]]]) -> str:
    """CSV `round,voter,hashes` of `(voter, round, hashes)` evidence, the
    hashes one voter cast in one round joined by `;`."""
    lines = ["round,voter,hashes"]
    lines += [f"{round_no},{voter},{';'.join(hashes)}" for voter, round_no, hashes in evidence]
    return "\n".join(lines) + "\n"
