"""Consensus: tallying, network simulation, safety."""

import hashlib
import itertools
import random
from operator import add
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from carbonledger import consensus, ledger as ledger_mod
from carbonledger.consensus import (
    Behavior,
    ConsensusEngine,
    NetworkModel,
    SafetyViolation,
    UnsafeFaultConfig,
    run_round,
    simulate_network,
    tally_votes,
)
from carbonledger.ledger import (
    Ledger,
    TxKind,
    build_block,
    create_genesis,
    derive_address,
    digest,
    make_transaction,
    max_faulty,
    quorum_size,
    verify_chain,
)
from carbonledger.tokens import TokenAmount

VALIDATORS = [derive_address(f"validator-{i}") for i in range(4)]
USERS = [derive_address(f"user-{i}") for i in range(4)]
MINT = derive_address("mint")
SINK = derive_address("sink")


def make_ledger(n_validators=4):
    validators = VALIDATORS[:n_validators]
    allocs = [
        make_transaction(0.0, MINT, u, TokenAmount(100_000),
                         TxKind.ALLOCATION)
        for u in USERS
    ]
    return create_genesis(validators, allocs)


def make_pool(ledger, n=2, ts=100.0):
    return [
        make_transaction(ts + i, USERS[i], SINK,
                         TokenAmount(50 + i), TxKind.SALE)
        for i in range(n)
    ]


# --- tally_votes ---


def tally(votes, n_active=4):
    """Tally `(voter, hash)` votes as arriving one after another at one node."""
    return tally_votes([(float(t), voter, h) for t, (voter, h) in enumerate(votes)],
                       quorum_size(n_active))


def test_three_of_four_commit():
    votes = [(v, "aa" * 32) for v in VALIDATORS[:3]]
    result = tally(votes)
    assert result.block_hash is not None
    assert result.block_hash == "aa" * 32
    assert len(result.voters) == 3


def test_split_vote_no_quorum():
    votes = [(VALIDATORS[0], "aa" * 32),
             (VALIDATORS[1], "aa" * 32),
             (VALIDATORS[2], "bb" * 32)]
    result = tally(votes)
    assert result.block_hash is None
    assert result.best == 2


def test_single_node_degenerate_quorum():
    result = tally([(VALIDATORS[0], "cc" * 32)], n_active=1)
    assert result.block_hash is not None


def test_equivocating_duplicates_first_counted():
    votes = [(VALIDATORS[0], "aa" * 32),
             (VALIDATORS[0], "bb" * 32),  # ignored
             (VALIDATORS[1], "aa" * 32),
             (VALIDATORS[2], "aa" * 32)]
    result = tally(votes)
    assert result.block_hash is not None and result.block_hash == "aa" * 32


def test_tally_counts_on_past_quorum():
    # the commit is fixed at the vote that made quorum; `best` keeps counting
    votes = [(v, "aa" * 32) for v in VALIDATORS]
    result = tally(votes)
    assert result.commit_time == 2.0
    assert result.voters == tuple(VALIDATORS[:3])
    assert result.best == 4


def test_tally_against_exhaustive_assignment_oracle():
    # every assignment of 4 voters to {H1, H2, silent}
    h1, h2 = "11" * 32, "22" * 32
    for assignment in itertools.product([h1, h2, None], repeat=4):
        votes = [(VALIDATORS[i], h)
                 for i, h in enumerate(assignment) if h is not None]
        result = tally(votes)
        count1 = sum(1 for h in assignment if h == h1)
        count2 = sum(1 for h in assignment if h == h2)
        if count1 >= 3 or count2 >= 3:
            assert result.block_hash is not None
            assert result.block_hash == (h1 if count1 >= 3 else h2)
        else:
            assert result.block_hash is None


def test_quorum_arithmetic_intersection():
    for n in range(1, 101):
        q = quorum_size(n)
        f = (n - 1) // 3
        assert q + f <= n and 2 * q > n + f


# --- simulate_network ---


def rows_of(deliveries):
    """One row per broadcast of each destination's arrival, or None if that
    send was dropped: every arrival computed, the oracle that the arrival
    readers of `Deliveries` are compared against."""
    lo, span, width, flat = deliveries.lo, deliveries.span, deliveries.width, deliveries.flat
    rows = []
    for b, (send_time, factor, own) in enumerate(deliveries.senders):
        row = [None if u is None else send_time + (lo + span * u) * factor / 1000.0
               for u in flat[b * width:(b + 1) * width]]
        if own >= 0:
            row[own] = send_time
        rows.append(row)
    return rows


def arrivals_of(deliveries):
    """Every send's arrival, broadcast by broadcast."""
    return [t for row in rows_of(deliveries) for t in row]


def test_identical_seed_identical_schedule():
    broadcasts = [(VALIDATORS[0], float(i)) for i in range(50)]
    dsts = [VALIDATORS[1]]
    net = NetworkModel(10, 20, drop_probability=0.2)
    a = simulate_network(broadcasts, dsts, net, random.Random(99))
    b = simulate_network(broadcasts, dsts, net, random.Random(99))
    assert a == b


def test_zero_drop_delivers_everything():
    broadcasts = [(VALIDATORS[0], 0.0) for i in range(100)]
    net = NetworkModel(10, 20, drop_probability=0.0)
    arrivals = arrivals_of(
        simulate_network(broadcasts, [VALIDATORS[1]], net, random.Random(1)))
    assert all(t is not None for t in arrivals)
    assert all(0.010 <= t <= 0.020 for t in arrivals)


def test_drop_rate_law_of_large_numbers():
    broadcasts = [(VALIDATORS[0], 0.0) for i in range(10_000)]
    net = NetworkModel(10, 20, drop_probability=0.3)
    arrivals = arrivals_of(
        simulate_network(broadcasts, [VALIDATORS[1]], net, random.Random(7)))
    dropped = sum(1 for t in arrivals if t is None)
    assert abs(dropped / 10_000 - 0.3) < 0.02


def test_self_messages_never_dropped():
    broadcasts = [(VALIDATORS[0], 1.0) for i in range(100)]
    net = NetworkModel(10, 20, drop_probability=0.9)
    arrivals = arrivals_of(
        simulate_network(broadcasts, [VALIDATORS[0]], net, random.Random(3)))
    assert all(t == 1.0 for t in arrivals)


def reference_rows(broadcasts, dsts, network, rng):
    """The delivery model row by row: each send's arrival computed as it
    is drawn, in the draw order the consensus module docstring states."""
    lo, span = network.delay_ms_low, network.delay_ms_high - network.delay_ms_low
    drop = network.drop_probability
    slow = {a for a, b in network.byzantine.items() if b is Behavior.DELAY}
    draw = rng.random
    rows = []
    for src, send_time in broadcasts:
        factor = consensus.DELAY_FACTOR if src in slow else 1.0
        if drop > 0:
            rows.append([send_time if dst == src
                         else None if draw() < drop
                         else send_time + (lo + span * draw()) * factor / 1000.0
                         for dst in dsts])
        else:
            rows.append([send_time if dst == src
                         else send_time + (lo + span * draw()) * factor / 1000.0
                         for dst in dsts])
    return rows


@st.composite
def broadcast_worlds(draw):
    """Broadcasts from validators and from outsiders (whose sends all take
    draws), some of them `delay` senders, over links that may start at 0 ms."""
    n = draw(st.integers(1, 32))
    dsts = [f"v{j:02d}" for j in range(n)]
    senders = dsts + ["outsider-0", "outsider-1"]
    srcs = draw(st.lists(st.sampled_from(senders), max_size=40))
    times = [draw(st.sampled_from([0.0, 0.02, 37.5, 100.123])) for _ in srcs]
    slow = draw(st.sets(st.sampled_from(senders)))
    lo = draw(st.sampled_from([0.0, 5.0, 10.0]))
    net = NetworkModel(lo, lo + draw(st.sampled_from([0.0, 10.0, 20.0])),
                       drop_probability=draw(st.sampled_from([0.0, 0.05, 0.3])),
                       byzantine={a: Behavior.DELAY for a in slow}, unsafe_faults=True)
    return list(zip(srcs, times)), dsts, net, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(broadcast_worlds())
def test_deliveries_match_the_per_send_rows(world):
    broadcasts, dsts, net, seed = world
    ours, theirs = random.Random(seed), random.Random(seed)
    delivered = simulate_network(broadcasts, dsts, net, ours)
    assert rows_of(delivered) == reference_rows(broadcasts, dsts, net, theirs)
    assert ours.random() == theirs.random()


@settings(max_examples=100, deadline=None)
@given(broadcast_worlds(), st.sampled_from([0.0, 37.51, 100.13]))
def test_columns_and_drops_read_the_rows(world, deadline):
    broadcasts, dsts, net, seed = world
    delivered = simulate_network(broadcasts, dsts, net, random.Random(seed))
    rows = rows_of(delivered)
    assert delivered.dropped == sum(row.count(None) for row in rows)
    payloads = [(src, str(b)) for b, (src, _) in enumerate(broadcasts)]
    for j in range(len(dsts)):
        assert delivered.inbox(j, deadline, payloads) == [
            (row[j], src, content) for (src, content), row in zip(payloads, rows)
            if row[j] is not None and row[j] <= deadline]


@settings(max_examples=200, deadline=None)
@given(broadcast_worlds(), st.sampled_from([0.0, 0.0125, 37.51, 100.13, 100.2]))
def test_reached_reads_the_rows(world, deadline):
    # drops, `delay` senders and outsiders, whose sends all take draws
    broadcasts, dsts, net, seed = world
    delivered = simulate_network(broadcasts, dsts, net, random.Random(seed))
    for b, row in enumerate(rows_of(delivered)):
        assert delivered.reached(b, deadline) == [
            j for j, t in enumerate(row) if t is not None and t <= deadline]


# --- count_first_votes against tally_votes ---

DEADLINE = 1.0


# an independent count of every node's first votes at once: the reference
# that `tally_votes`, and the decisions `run_round` takes with it, are
# compared against
def count_first_votes(
    ballots: Sequence[tuple[str, tuple[str, ...]]],
    rows: Sequence[Sequence[Optional[float]]],
    deadline: float,
) -> tuple[dict[str, list[int]], bool]:
    """Per hash, how many voters' first on-time vote at each node it is.

    `ballots` holds each voter's cast hashes in send order and `rows` each
    cast vote's arrivals, one row per vote, ballot by ballot, one entry per
    node.  A vote is on time when it arrived by `deadline`.  A voter's first
    vote at a node is its smallest on-time ``(arrival, hash)`` there, the
    one `tally_votes` counts.  Also returns whether any vote was dropped or
    late.
    """
    votes = iter(rows)
    zeros = [0] * len(rows[0]) if rows else []
    counts: dict[str, list[int]] = {}
    late_or_dropped = False
    for _, hashes in ballots:
        if len(hashes) == 1:
            on_time = [t is not None and t <= deadline for t in next(votes)]
            late_or_dropped = late_or_dropped or not all(on_time)
            counts[hashes[0]] = list(map(add, counts.get(hashes[0], zeros), on_time))
            continue
        own = [next(votes) for _ in hashes]
        late_or_dropped = late_or_dropped or not all(
            t is not None and t <= deadline for row in own for t in row)
        firsts = [min([(t, h) for t, h in zip(col, hashes)
                       if t is not None and t <= deadline], default=(None, None))[1]
                  for col in zip(*own)]
        for h in dict.fromkeys(hashes):
            counts[h] = list(map(add, counts.get(h, zeros), [f == h for f in firsts]))
    return counts, late_or_dropped


@st.composite
def vote_worlds(draw):
    """Ballots and per-node arrivals: silent voters, equivocators (whose own
    node gets both their votes at one instant), dropped and late votes, and
    arrival times from a small set so that ties are common."""
    n = draw(st.integers(1, 32))
    kinds = draw(st.lists(st.sampled_from(["honest", "silent", "equivocate"]),
                          min_size=n, max_size=n))
    p_drop, p_late = draw(st.sampled_from([0.0, 0.1, 0.4])), draw(st.sampled_from([0.0, 0.2]))
    lean = draw(st.sampled_from([0.5, 0.9, 1.0]))  # share of voters choosing "aa…"
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ballots = [(f"v{v:02d}", (choice, f"fake-{v:02d}") if kind == "equivocate" else (choice,))
               for v, kind in enumerate(kinds) if kind != "silent"
               for choice in ["aa" * 32 if rng.random() < lean else "bb" * 32]]
    rows = []
    for voter, ballot in ballots:
        own = int(voter[1:])
        for _ in ballot:
            rows.append([0.0 if j == own
                         else None if rng.random() < p_drop
                         else DEADLINE + 0.5 if rng.random() < p_late
                         else rng.choice([0.25, 0.5, 0.75, DEADLINE]) for j in range(n)])
    return n, ballots, rows


@settings(max_examples=300, deadline=None)
@given(vote_worlds())
def test_counts_decide_what_tally_votes_commits(world):
    n, ballots, rows = world
    q = quorum_size(n)
    counts, late_or_dropped = count_first_votes(ballots, rows, DEADLINE)
    votes = [(voter, h) for voter, ballot in ballots for h in ballot]
    assert late_or_dropped == any(t is None or t > DEADLINE for row in rows for t in row)
    for j in range(n):
        inbox = [(row[j], voter, h) for (voter, h), row in zip(votes, rows)
                 if row[j] is not None and row[j] <= DEADLINE]
        result = tally_votes(inbox, q)
        at_quorum = [h for h, per_node in counts.items() if per_node[j] >= q]
        assert len(at_quorum) <= 1
        assert (at_quorum[0] if at_quorum else None) == result.block_hash
        assert max((per_node[j] for per_node in counts.values()), default=0) == result.best


# --- run_round ---


def test_honest_round_commits_and_applies():
    ledger = make_ledger()
    pool = make_pool(ledger)
    result = run_round(pool, ledger, NetworkModel(),
                       random.Random(5), round_no=0, start_time=100.0)
    assert result.decision.outcome == "committed"
    assert result.ledger.height == 1
    assert result.decision.votes_counted >= 3
    assert result.commit_time > 100.0
    assert len(result.block.signatures) >= 3


def test_round_is_deterministic():
    ledger = make_ledger()
    pool = make_pool(ledger)
    r1 = run_round(pool, ledger, NetworkModel(), random.Random(5), 0, 100.0)
    r2 = run_round(pool, ledger, NetworkModel(), random.Random(5), 0, 100.0)
    assert r1.decision == r2.decision
    assert r1.commit_time == r2.commit_time
    assert r1.block.block_hash == r2.block.block_hash


def test_one_equivocator_still_commits_without_fork():
    ledger = make_ledger()
    pool = make_pool(ledger, n=3)
    for seed in range(50):
        net = NetworkModel(byzantine={VALIDATORS[3]: Behavior.EQUIVOCATE})
        result = run_round(pool, ledger, net, random.Random(seed), 0, 100.0)
        assert result.decision.outcome == "committed"
        assert len(result.fork_hashes) == 1
        assert result.equivocations


@pytest.mark.parametrize("leader_behavior, proposals", [
    (None, 1),
    (Behavior.EQUIVOCATE, 2),  # two variants, each sent to half the validators
])
def test_each_proposal_validated_once_per_round(monkeypatch, leader_behavior, proposals):
    ledger = make_ledger()
    pool = make_pool(ledger, n=3)
    byz = {VALIDATORS[0]: leader_behavior} if leader_behavior else {}
    calls = []
    original = Ledger.validate_pool

    def counting(self, txs):
        calls.append(txs)
        return original(self, txs)

    monkeypatch.setattr(Ledger, "validate_pool", counting)
    run_round(pool, ledger, NetworkModel(byzantine=byz),
              random.Random(5), round_no=0, start_time=100.0)
    # not one call per delivery: the proposer sends to all 4 validators
    assert len(calls) == proposals
    assert len({tuple(tx.tx_id for tx in txs) for txs in calls}) == proposals


@pytest.mark.parametrize("leader_behavior, proposals, outcome", [
    (None, 1, "committed"),
    (Behavior.EQUIVOCATE, 2, "no_quorum"),  # the variants split the votes 2-2
])
def test_each_proposal_hashed_once_per_round(monkeypatch, leader_behavior, proposals,
                                             outcome):
    # the block hash `build_block` computes is the one the round keeps: the
    # vote walk does not recompute it, and `apply_block` only links the block
    ledger = make_ledger()
    byz = {VALIDATORS[0]: leader_behavior} if leader_behavior else {}
    block_hashes = []
    digest = ledger_mod.digest

    def counting(*parts):
        if parts[0] == "blk":
            block_hashes.append(parts)
        return digest(*parts)

    monkeypatch.setattr(ledger_mod, "digest", counting)
    result = run_round(make_pool(ledger, n=3), ledger, NetworkModel(byzantine=byz),
                       random.Random(5), round_no=0, start_time=100.0)
    assert result.decision.outcome == outcome
    assert len(block_hashes) == len(set(block_hashes)) == proposals


def test_silent_leader_times_out_then_next_leader_commits():
    ledger = make_ledger()
    pool = make_pool(ledger)
    net = NetworkModel(byzantine={VALIDATORS[0]: Behavior.SILENT})
    engine = ConsensusEngine(net, random.Random(11))
    result, new_ledger, _ = engine.run_until_commit(pool, ledger, 100.0)
    assert result is not None and new_ledger.height == 1
    outcomes = [row.outcome for row in engine.trace]
    assert outcomes[0] in ("no_quorum", "round_timeout")  # silent proposer
    assert outcomes[-1] == "committed"


def test_liveness_under_synchrony_with_tolerable_silence():
    # zero drops, bounded delays, one silent non-leader: every round commits
    ledger = make_ledger()
    pool = make_pool(ledger)
    net = NetworkModel(byzantine={VALIDATORS[2]: Behavior.SILENT})
    for seed in range(30):
        result = run_round(pool, ledger, net, random.Random(seed), 0, 50.0)
        assert result.decision.outcome == "committed"


def delay_node_chain(net, seed, n_pools=20):
    """The chain a 4-validator engine commits over `n_pools` pools, and the
    signers of each committed block."""
    ledger = make_ledger()
    engine = ConsensusEngine(net, random.Random(seed))
    signers = []
    now = 0.0
    for i in range(n_pools):
        result, ledger, now = engine.run_until_commit(
            make_pool(ledger, ts=100.0 + 10 * i), ledger, now)
        if result is not None:
            signers.append({addr for addr, _ in result.block.signatures})
    return ledger, signers


def test_delay_node_tolerated():
    # under the default 10-20 ms links a `delay` node's sends take 50-100 ms,
    # past the 20 ms proposal deadline and the 39.8 ms vote window, so it is
    # in effect silent: it signs no committed block, and only the rounds it
    # proposes fail
    slow = VALIDATORS[1]
    net = NetworkModel(byzantine={slow: Behavior.DELAY})
    for seed in range(30):
        ledger = make_ledger()
        result = run_round(make_pool(ledger), ledger, net, random.Random(seed), 0, 0.0)
        assert result.decision.outcome == "committed"
        assert slow not in dict(result.block.signatures)
    ledger, signers = delay_node_chain(net, seed=2)
    assert verify_chain(ledger).ok and len(signers) == 20
    assert not any(slow in block for block in signers)


def test_delay_node_votes_sometimes_land_on_fast_links():
    # with 0-20 ms links its votes take 0-100 ms and land inside the 39.6 ms
    # window whenever the drawn delay is below 7.92 ms
    slow = VALIDATORS[1]
    net = NetworkModel(0.0, 20.0, byzantine={slow: Behavior.DELAY})
    ledger, signers = delay_node_chain(net, seed=5)
    assert verify_chain(ledger).ok and signers
    assert any(slow in block for block in signers)


def test_two_byzantine_beyond_bound_needs_flag():
    ledger = make_ledger()
    byz = {VALIDATORS[2]: Behavior.SILENT,
           VALIDATORS[3]: Behavior.SILENT}
    with pytest.raises(UnsafeFaultConfig):
        run_round(make_pool(ledger), ledger, NetworkModel(byzantine=byz),
                  random.Random(0), 0, 0.0)
    net = NetworkModel(byzantine=byz, unsafe_faults=True)
    result = run_round(make_pool(ledger), ledger, net, random.Random(0), 0, 0.0)
    assert result.decision.outcome == "no_quorum"  # 2 votes can never reach 3


def test_commit_latency_matches_order_statistic_expectation():
    # leader-anchored commit: deadline + (q-1)-th order statistic of n-1
    # iid uniform link delays
    ledger = make_ledger()
    lo, hi, n, q = 10.0, 20.0, 4, 3
    expected_ms = hi + lo + (hi - lo) * (q - 1) / n
    rng = random.Random(123)
    net = NetworkModel(lo, hi)
    samples = []
    for i in range(400):
        pool = make_pool(ledger, ts=float(i))
        result = run_round(pool, ledger, net, rng, i, 0.0)
        assert result.decision.outcome == "committed"
        samples.append(result.commit_time * 1000.0)
    mean = sum(samples) / len(samples)
    assert abs(mean - expected_ms) / expected_ms < 0.05


# --- the decision against the all-node anchor rule ---

LEDGERS = {}


def genesis_of(n):
    """A 4-user genesis among `n` validators, built once per size."""
    if n not in LEDGERS:
        validators = [derive_address(f"validator-{i}") for i in range(n)]
        allocs = [make_transaction(0.0, MINT, u, TokenAmount(100_000), TxKind.ALLOCATION)
                  for u in USERS]
        LEDGERS[n] = create_genesis(validators, allocs)
    return LEDGERS[n]


def all_node_decision(pool, ledger, net, round_no, start_time, sent):
    """The anchor rule applied at every node, from the two network calls a
    round made (`sent`: their broadcasts and rows).

    Each honest node commits the hash whose count of first on-time votes
    there reaches quorum; the anchor is the creator's tally when it
    committed, otherwise the earliest committer's.  Returns (outcome, block
    hash, votes counted, fork hashes, commit time, sorted signers), or
    "fork" for two committed hashes.
    """
    validators, byz = ledger.validators, net.byzantine
    n, quorum = len(validators), ledger.quorum
    proposer = validators[round_no % n]
    prop_deadline, round_deadline = net.deadlines(start_time)
    (_, prop_rows), (vote_sends, vote_rows) = sent

    # every proposal is valid here, so a validator's candidate is what
    # reached it by the proposal deadline
    proposals, candidate = {}, {}
    if prop_rows:
        block = build_block(pool, proposer, ledger.head)
        variant = (build_block(list(pool)[:-1], proposer, ledger.head)
                   if byz.get(proposer) is Behavior.EQUIVOCATE and len(pool) > 1 else None)
        proposals = {b.block_hash: b for b in (block, variant) if b is not None}
        for i, (v, t) in enumerate(zip(validators, prop_rows[0])):
            if t is not None and t <= prop_deadline:
                candidate[v] = variant if variant is not None and i % 2 else block
    ballots = []
    for v in validators:
        if byz.get(v) is Behavior.SILENT or v not in candidate:
            continue
        choice = candidate[v].block_hash
        ballots.append((v, (choice, digest("equivocation", v, str(round_no)))
                        if byz.get(v) is Behavior.EQUIVOCATE else (choice,)))
    votes = [(v, h) for v, hashes in ballots for h in hashes]
    assert vote_sends == [(v, prop_deadline) for v, _ in votes]

    counts, late_or_dropped = count_first_votes(ballots, vote_rows, round_deadline)
    committers = {h: nodes for h, per_node in counts.items()
                  if (nodes := [j for j, c in enumerate(per_node)
                                if c >= quorum and validators[j] not in byz])}
    if len(committers) > 1:
        return "fork"
    if not committers:
        outcome = ("round_timeout" if len(ballots) >= quorum and late_or_dropped
                   else "no_quorum")
        best = max((max(per_node) for per_node in counts.values()), default=0)
        return outcome, None, best, (), None, None
    (block_hash, nodes), = committers.items()
    creator = validators.index(proposals[block_hash].creator)

    def tally_at(j):
        return tally_votes([(row[j], v, h) for (v, h), row in zip(votes, vote_rows)
                            if row[j] is not None and row[j] <= round_deadline], quorum)

    tallies = [(validators[j], tally_at(j))
               for j in ([creator] if creator in nodes else nodes)]
    anchor = min(tallies, key=lambda kv: (kv[1].commit_time, kv[0], kv[1].voters))[1]
    assert anchor.block_hash == block_hash
    return ("committed", block_hash, len(anchor.voters), (block_hash,),
            anchor.commit_time, tuple(sorted(anchor.voters)))


@st.composite
def rounds(draw):
    """One round's network and pool: up to 32 validators, drops, links that
    may start at 0 ms (so `delay` votes can land), and silent, equivocating
    and delay nodes, within the fault bound or beyond it with
    `unsafe_faults`."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 10, 16, 32]))
    ledger = genesis_of(n)
    unsafe = draw(st.booleans())
    kinds = draw(st.lists(st.sampled_from(
        [None, None, None, Behavior.SILENT, Behavior.EQUIVOCATE, Behavior.DELAY]),
        min_size=n, max_size=n))
    byz = {v: kind for v, kind in zip(ledger.validators, kinds) if kind is not None}
    if not unsafe:
        byz = dict(list(byz.items())[:max_faulty(n)])
    lo = draw(st.sampled_from([0.0, 5.0, 10.0]))
    net = NetworkModel(lo, lo + draw(st.sampled_from([0.0, 10.0, 20.0])),
                       drop_probability=draw(st.sampled_from([0.0, 0.05, 0.1, 0.3])),
                       byzantine=byz, unsafe_faults=unsafe)
    pool = make_pool(ledger, n=draw(st.integers(1, 3)))
    return (pool, ledger, net, draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, 63)), draw(st.sampled_from([0.0, 37.5])))


@settings(max_examples=400, deadline=None)
@given(rounds())
def test_decision_matches_the_all_node_anchor_rule(world):
    pool, ledger, net, seed, round_no, start = world
    sent = []
    network = consensus.simulate_network

    def recording(broadcasts, dsts, model, rng):
        delivered = network(broadcasts, dsts, model, rng)
        sent.append((list(broadcasts), rows_of(delivered)))
        return delivered

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(consensus, "simulate_network", recording)
        try:
            r = run_round(pool, ledger, net, random.Random(seed), round_no, start)
        except SafetyViolation:
            r = None
    expected = all_node_decision(pool, ledger, net, round_no, start, sent)
    if r is None:
        assert expected == "fork"
        return
    signers = None if r.block is None else tuple(addr for addr, _ in r.block.signatures)
    assert (r.decision.outcome, r.decision.block_hash, r.decision.votes_counted,
            r.fork_hashes, r.commit_time, signers) == expected
    assert r.ledger.height == ledger.height + (r.block is not None)


def count_tallies(monkeypatch):
    calls = []
    tally = consensus.tally_votes

    def wrapper(*args):
        calls.append(args)
        return tally(*args)

    monkeypatch.setattr(consensus, "tally_votes", wrapper)
    return calls


INBOXES_READ = []


class RecordedInboxes(consensus.Deliveries):
    def inbox(self, j, *args):
        INBOXES_READ.append(j)
        return super().inbox(j, *args)


def read_votes_by_inbox(monkeypatch):
    """Make each round's vote deliveries `RecordedInboxes`, so that every
    inbox read is recorded in `INBOXES_READ`."""
    network, phases = consensus.simulate_network, itertools.cycle(["proposal", "votes"])

    def votes_read_by_inbox(*args):
        delivered = network(*args)
        return RecordedInboxes(*delivered) if next(phases) == "votes" else delivered

    monkeypatch.setattr(consensus, "simulate_network", votes_read_by_inbox)
    INBOXES_READ.clear()


def test_honest_creator_decides_without_counting_every_node(monkeypatch):
    ledger = genesis_of(32)
    calls = count_tallies(monkeypatch)
    read_votes_by_inbox(monkeypatch)
    net = NetworkModel(drop_probability=0.05)
    for round_no in range(20):
        result = run_round(make_pool(ledger), ledger, net, random.Random(round_no),
                           round_no, 0.0)
        assert result.decision.outcome == "committed"
    # one tally per round, of the creator's inbox: at most n vote arrivals
    assert len(calls) == 20
    assert INBOXES_READ == list(range(20))


@pytest.mark.parametrize("seed", range(1, 6))
def test_creator_short_of_quorum_is_tallied_once(monkeypatch, seed):
    ledger = make_ledger()
    calls = count_tallies(monkeypatch)
    read_votes_by_inbox(monkeypatch)
    net = NetworkModel(drop_probability=0.3)
    run_round(make_pool(ledger), ledger, net, random.Random(seed), 0, 0.0)
    # the honest creator's tally did not commit, so every node is counted,
    # the creator first and only once
    assert tally_votes(*calls[0]).block_hash is None
    assert len(calls) == len(ledger.validators)
    assert sorted(INBOXES_READ) == list(range(len(ledger.validators)))
    assert INBOXES_READ[0] == 0


@pytest.mark.parametrize("n, faults", [(4, {}), (32, {3: Behavior.EQUIVOCATE})])
def test_committed_round_attests_once_per_signer(monkeypatch, n, faults):
    ledger = genesis_of(n)
    net = NetworkModel(drop_probability=0.05, byzantine={
        ledger.validators[i]: behavior for i, behavior in faults.items()})
    attestations = []
    digest = ledger_mod.digest

    def counting(*parts):
        if parts[0] == "commit":
            attestations.append(parts[1])
        return digest(*parts)

    monkeypatch.setattr(ledger_mod, "digest", counting)
    committed = 0
    for round_no in range(8):
        attestations.clear()
        result = run_round(make_pool(ledger, n=3), ledger, net, random.Random(round_no),
                           round_no, 0.0)
        if result.block is None:
            assert attestations == []
            continue
        committed += 1
        signers = [addr for addr, _ in result.block.signatures]
        assert sorted(attestations) == signers
        assert len(signers) == result.decision.votes_counted >= ledger.quorum
    assert committed >= 6


def test_equivocating_creator_is_decided_at_every_node(monkeypatch):
    ledger = genesis_of(32)
    calls = count_tallies(monkeypatch)
    net = NetworkModel(drop_probability=0.05,
                       byzantine={ledger.validators[3]: Behavior.EQUIVOCATE})
    # a byzantine creator is not tallied first: every node is, once
    run_round(make_pool(ledger, n=3), ledger, net, random.Random(1), 3, 0.0)
    assert len(calls) == 32


# --- exhaustive small-depth interleaving check ---


def test_model_check_no_two_commits_at_one_height():
    """Enumerate vote worlds for n=4 with one equivocator.

    Independent reimplementation of the per-recipient tally: honest voters
    pick a hash (divergent candidate sets allowed), the equivocator's
    first-arriving vote differs per recipient, and any honest vote except
    one's own may fail to arrive.  In no world may two distinct hashes both
    reach quorum anywhere.
    """
    q = 3
    h1, h2 = "11" * 32, "22" * 32
    honest = [0, 1, 2]
    equivocator = 3
    worlds = 0
    for honest_votes in itertools.product([h1, h2], repeat=3):
        for equiv_first in itertools.product([h1, h2], repeat=4):
            # per recipient: everything arrives, or one honest vote is lost
            for missing in itertools.product([None, 0, 1, 2], repeat=4):
                committed = set()
                for recipient in range(4):
                    counted = {}
                    for voter in honest:
                        if missing[recipient] == voter and voter != recipient:
                            continue  # lost in transit; own vote never is
                        counted[voter] = honest_votes[voter]
                    counted[equivocator] = equiv_first[recipient]
                    tally = {}
                    for h in counted.values():
                        tally[h] = tally.get(h, 0) + 1
                    for h, c in tally.items():
                        if c >= q:
                            committed.add(h)
                assert len(committed) <= 1, (
                    honest_votes, equiv_first, missing, committed
                )
                worlds += 1
    assert worlds == 2**3 * 2**4 * 4**4


# --- pinned draw order ---

# sha256 over every RoundResult field, plus the network stream's next draw,
# of 500 seeded random rounds: any change in the draws a round takes, or in
# what it returns, shows here
RANDOM_ROUNDS_DIGEST = "16f38c6ec5c2cbd624d0d2821db07ef9f41ea8f6676d10a641ddc6812f54f7f8"


def test_random_rounds_match_pinned_digest():
    params = random.Random(20260)
    net_rng = random.Random(4)
    behaviors = [Behavior.SILENT, Behavior.EQUIVOCATE, Behavior.DELAY]
    ledgers = {}
    digest = hashlib.sha256()
    for _ in range(500):
        n = params.choice([1, 2, 3, 4, 5, 6, 7, 32])
        if n not in ledgers:
            validators = [derive_address(f"validator-{i}") for i in range(n)]
            allocs = [make_transaction(0.0, MINT, u,
                                       TokenAmount(100_000), TxKind.ALLOCATION)
                      for u in USERS]
            ledgers[n] = create_genesis(validators, allocs)
        ledger = ledgers[n]
        unsafe = params.random() < 0.5
        p_fault = params.choice([0.0, 0.2, 0.5])
        byz = {v: params.choice(behaviors) for v in ledger.validators
               if params.random() < p_fault}
        if not unsafe:
            byz = dict(list(byz.items())[:max_faulty(n)])
        lo = params.choice([0.0, 5.0, 10.0])
        net = NetworkModel(lo, lo + params.choice([0.0, 10.0, 20.0]),
                           drop_probability=params.choice([0.0, 0.05, 0.1, 0.3]),
                           byzantine=byz, unsafe_faults=unsafe)
        pool = make_pool(ledger, n=params.randint(1, 3), ts=params.uniform(0, 100))
        r = run_round(pool, ledger, net, net_rng,
                      round_no=params.randrange(64), start_time=params.uniform(0, 500))
        assert len(r.fork_hashes) <= 1
        d = r.decision
        block = None if r.block is None else (r.block.block_hash, r.block.signatures)
        record = (d.round, d.outcome, d.block_hash, d.votes_counted, block,
                  r.ledger.height, r.ledger.head.block_hash, r.commit_time,
                  r.proposer, r.fork_hashes, r.equivocations, r.n_messages,
                  r.n_dropped, net_rng.random())
        digest.update(repr(record).encode() + b"\n")
    assert digest.hexdigest() == RANDOM_ROUNDS_DIGEST
