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
* a vote is counted where it arrives: a node commits hash H exactly when
  H's count there, of each voter's first on-time vote, reaches quorum;
  since 2 · quorum > n at most one hash per node can;
* the round's commit instant and its voters are the moment and the
  voters with which H reached quorum at one anchor node, as `tally_votes`
  counts them: the winning block's creator when it committed, otherwise
  the earliest honest node that did.  The creator's own vote is free, so
  with honest nodes and zero drops the expected commit latency is
  ``max_delay + lo + (hi − lo) · (quorum − 1) / n``
  (the (quorum−1)-th order statistic of n−1 uniform link delays);
* the round times out ``2 × p99 link delay`` after the vote phase starts.

Decision order: `tally_votes` is the one vote count, and the rule above is
applied at the creator first.  When the proposer is honest, its tally runs
alone, and if the creator commits the round is decided there, in
O(ballots).  That is exact: an honest proposer sends one block, and every
other hash is a fabricated vote with one voter from another validator, so
n ≥ 2 and that hash cannot reach the quorum of at least two.  Every other
round (a byzantine creator, or one short of quorum) builds each node's
on-time inbox and tallies it, in O(ballots × n); the honest committers,
the failed round's largest count and whether any vote was lost or late are
all read from those tallies.  Either way the round draws its n² deliveries
in `simulate_network`, but it computes a vote's arrival only where a tally
reads it: at the creator, one inbox of at most n arrivals
(`Deliveries.inbox`); in the other rounds, every node's.

Draw order: each round calls `simulate_network` twice, for the proposal
and then the votes, and both calls draw from the one round rng.  A
broadcast goes to every validator in validator order.  The proposal is one
broadcast, or none from a silent proposer.  The votes are one broadcast per
vote, voter by voter in validator order; an equivocator's chosen hash goes
before its fabricated one.  A send to another node takes one
``rng.random()`` drop draw, only when the drop probability is above zero,
and, if it is not dropped, one delay draw ``u``.  A send to oneself takes no
draw and arrives at once.  The draws are kept as drawn; a delivered send's
arrival, ``send_time + (lo + (hi − lo) · u) · factor / 1000`` (the delay is
what ``random.uniform`` computes, and ``factor`` is 5 for a ``delay`` sender,
otherwise 1), is computed when a proposal check or a vote tally reads it.

Faulty behaviors: ``silent`` nodes send nothing; ``equivocate`` nodes
propose conflicting variants to different peers and cast conflicting
votes; ``delay`` nodes send everything five times slower.  At each node a
voter's first on-time vote there, its smallest ``(arrival, hash)``, is
counted; its other votes are kept as evidence.

A ``delay`` node's sends take at least ``5 · lo``, so its proposals are
always late when ``5 · lo > hi`` (the proposal deadline) and its votes
always miss the vote window when ``5 · lo > 2 · p99``.  Both hold under the
default 10–20 ms links (50 ms against 20 ms and 39.8 ms): there such a node
is in effect ``silent``.  With ``lo = 0`` its sends sometimes land on time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Mapping, NamedTuple, Optional, Sequence

from .ledger import (
    Block,
    Ledger,
    TokenTransaction,
    block_attestation,
    build_block,
    compute_block_hash,
    digest,
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


class Deliveries(NamedTuple):
    """The drawn deliveries of some broadcasts to `width` destinations.

    `flat` holds one entry per send, broadcast by broadcast and each in
    destination order: the delay draw ``u`` of a delivered send, None for a
    dropped one, and 0.0 for a send to oneself (read as the send time).
    `senders` holds each broadcast's ``(send_time, factor, own)``: its delay
    factor and its sender's destination index, or -1.
    """

    flat: list[Optional[float]]
    senders: list[tuple[float, float, int]]
    width: int
    lo: float
    span: float

    @property
    def dropped(self) -> int:
        return self.flat.count(None)

    def inbox(self, j: int, deadline: float,
              payloads: Sequence[tuple[str, str]]) -> list[tuple[float, str, str]]:
        """``(arrival, *payload)`` of each broadcast that reached destination
        `j` by `deadline`, in broadcast order, given one ``(sender, content)``
        payload per broadcast; no other arrival is computed."""
        lo, span = self.lo, self.span
        return [(t, src, content)
                for (src, content), (send_time, factor, own), u
                in zip(payloads, self.senders, self.flat[j::self.width])
                if u is not None and (t := send_time if own == j else
                                      send_time + (lo + span * u) * factor / 1000.0) <= deadline]

    def rows(self) -> list[list[Optional[float]]]:
        """One row per broadcast of each destination's arrival, or None if
        that send was dropped."""
        lo, span, width, flat = self.lo, self.span, self.width, self.flat
        rows = []
        for b, (send_time, factor, own) in enumerate(self.senders):
            row = [None if u is None else send_time + (lo + span * u) * factor / 1000.0
                   for u in flat[b * width:(b + 1) * width]]
            if own >= 0:
                row[own] = send_time
            rows.append(row)
        return rows


def simulate_network(
    broadcasts: Sequence[tuple[str, float]],
    dsts: Sequence[str],
    network: NetworkModel,
    rng: random.Random,
) -> Deliveries:
    """Deliver each ``(src, send_time)`` broadcast to every one of `dsts`.

    Deterministic given the rng state: broadcasts go out in the given
    order, each to `dsts` in order, and consume draws as the module
    docstring states.  Since a send to oneself takes no draw, the draws of
    all other sends are taken in one pass and the self sends slotted in.
    """
    index = {dst: j for j, dst in enumerate(dsts)}
    slow = {a for a, b in network.byzantine.items() if b is Behavior.DELAY}
    # x * 1.0 == x exactly, so an unslowed delay is `lo + span * u` as drawn
    senders = [(send_time, DELAY_FACTOR if src in slow else 1.0, index.get(src, -1))
               for src, send_time in broadcasts]
    width = len(dsts)
    selves = [b * width + own for b, (_, _, own) in enumerate(senders) if own >= 0]
    sends = len(senders) * width - len(selves)
    drop, draw = network.drop_probability, rng.random
    flat: list[Optional[float]] = (
        [None if draw() < drop else draw() for _ in repeat(None, sends)] if drop > 0
        else [draw() for _ in repeat(None, sends)])
    for i in selves:
        flat.insert(i, 0.0)
    return Deliveries(flat, senders, width, network.delay_ms_low,
                      network.delay_ms_high - network.delay_ms_low)


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
    deliveries: tuple[Deliveries, Deliveries]  # the proposal's, then the votes'

    @property
    def n_messages(self) -> int:
        return sum(len(d.flat) for d in self.deliveries)

    @property
    def n_dropped(self) -> int:
        return sum(d.dropped for d in self.deliveries)


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
    rng: random.Random,
    round_no: int = 0,
    start_time: float = 0.0,
) -> RoundResult:
    """Propose, broadcast, vote and tally once among the ledger's validators;
    apply the block on commit.

    Every decision is a `tally_votes` count: an honest creator's own inbox
    first, which decides the round in O(ballots) when the creator commits;
    otherwise every node's inbox, in O(ballots × n), with the earliest
    honest committer as the anchor (see the module docstring).  On
    ``no_quorum`` or ``round_timeout`` the input ledger is returned
    unchanged and the caller retries with the pool intact.
    """
    validators = ledger.validators
    n = len(validators)
    network.check_fault_bound(n)
    byzantine = network.byzantine
    head = ledger.head
    proposer = validators[round_no % n]
    prop_deadline, round_deadline = network.deadlines(start_time)

    # --- proposal phase: an equivocating proposer sends every other
    # validator a conflicting variant ---
    broadcasts: list[tuple[str, float]] = []
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
        broadcasts = [(proposer, start_time)]
    prop_sent = simulate_network(broadcasts, validators, network, rng)

    # each validator receives at most one proposal; each distinct proposal is
    # checked once however many validators receive it
    candidate: dict[str, Block] = {}
    verdicts: dict[str, bool] = {}
    for row in prop_sent.rows():
        for dst, block, t in zip(validators, payloads, row):
            if t is None or t > prop_deadline:
                continue
            valid = verdicts.get(block.block_hash)
            if valid is None:
                valid = verdicts[block.block_hash] = _proposal_valid(block, ledger)
            if valid:
                candidate[dst] = block

    # --- vote phase: each cast (voter, hash) is broadcast to every validator ---
    ballots: list[tuple[str, tuple[str, ...]]] = []
    equivocations: list[tuple[str, int, tuple[str, ...]]] = []
    for v in validators:
        beh = byzantine.get(v)
        if beh is Behavior.SILENT or v not in candidate:
            continue
        choice = candidate[v].block_hash
        if beh is Behavior.EQUIVOCATE:
            fake = digest("equivocation", v, str(round_no))
            ballots.append((v, (choice, fake)))
            equivocations.append((v, round_no, (choice, fake)))
        else:
            ballots.append((v, (choice,)))
    votes = [(v, h) for v, hashes in ballots for h in hashes]
    vote_sent = simulate_network(
        [(v, prop_deadline) for v, _ in votes], validators, network, rng)

    # --- decision: an honest creator is tallied first, and every node only
    # when the creator does not commit ---
    quorum, creator = ledger.quorum, round_no % n
    own = None if proposer in byzantine else vote_sent.inbox(creator, round_deadline, votes)
    anchor = None if own is None else tally_votes(own, quorum)
    if anchor is not None and anchor.block_hash is not None:
        fork_hashes = (anchor.block_hash,)
    else:  # every node's inbox and tally, the creator's reused
        inboxes = [own if j == creator and own is not None
                   else vote_sent.inbox(j, round_deadline, votes) for j in range(n)]
        tallies = [anchor if j == creator and anchor is not None
                   else tally_votes(inbox, quorum) for j, inbox in enumerate(inboxes)]
        committers = [(v, tally) for v, tally in zip(validators, tallies)
                      if tally.block_hash is not None and v not in byzantine]

        # Safety, whatever `unsafe_faults` says: an equivocating proposer's
        # two variants go to disjoint voter sets and 2·ceil(2n/3) > n, so at
        # most one of them reaches quorum; each fabricated vote hash has one
        # voter, so it reaches quorum only when n = 1, and then its one node
        # is not honest.  Every honest commit is therefore one hash, and that
        # hash was proposed.
        fork_hashes = tuple(sorted({tally.block_hash for _, tally in committers}))
        if len(fork_hashes) > 1:
            raise SafetyViolation(f"round {round_no}: distinct commits {fork_hashes}")
        if not committers:
            # round_timeout: a quorum was cast but votes were lost or late;
            # no_quorum: the cast votes could never have formed one, or split
            late_or_dropped = any(len(inbox) < len(votes) for inbox in inboxes)
            outcome = ("round_timeout" if len(ballots) >= quorum and late_or_dropped
                       else "no_quorum")
            return RoundResult(
                Decision(round_no, outcome, None, max(tally.best for tally in tallies)),
                None, ledger, None, proposer, fork_hashes, equivocations,
                (prop_sent, vote_sent),
            )
        # no honest creator committed, so the commit instant is taken at the
        # earliest honest node that did
        anchor = min(committers, key=lambda vt: (vt[1].commit_time, vt[0], vt[1].voters))[1]

    block = proposals[anchor.block_hash]
    final = with_signatures(block, (
        (addr, block_attestation(addr, block.block_hash)) for addr in anchor.voters))
    decision = Decision(round_no, "committed", block.block_hash, len(anchor.voters))
    return RoundResult(
        decision, final, ledger.apply_block(final), anchor.commit_time, proposer,
        fork_hashes, equivocations, (prop_sent, vote_sent),
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

    def __init__(self, network: NetworkModel, rng: random.Random):
        self.network = network
        self.rng = rng
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
                pool, ledger, self.network, self.rng,
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
