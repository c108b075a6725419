"""Consensus: tallying, network simulation, safety."""

import itertools
import random

import pytest

from carbonledger.consensus import (
    Behavior,
    ConsensusConfig,
    ConsensusEngine,
    Message,
    NetworkModel,
    UnsafeFaultConfig,
    make_vote,
    run_round,
    simulate_network,
    tally_votes,
)
from carbonledger.ledger import (
    Ledger,
    NodeIdentity,
    Role,
    TxKind,
    create_genesis,
    make_transaction,
    quorum_size,
)
from carbonledger.tokens import TokenAmount

VALIDATORS = [NodeIdentity(f"validator-{i}", Role.ACTIVE_VALIDATOR) for i in range(4)]
USERS = [NodeIdentity(f"user-{i}", Role.USER) for i in range(4)]
MINT = NodeIdentity("mint", Role.MARKET)
SINK = NodeIdentity("sink", Role.MARKET)


def make_ledger(n_validators=4):
    validators = VALIDATORS[:n_validators]
    allocs = [
        make_transaction(0.0, MINT.address, u.address, TokenAmount(100_000),
                         TxKind.ALLOCATION)
        for u in USERS
    ]
    return create_genesis(USERS + [MINT, SINK], validators, allocs)


def make_pool(ledger, n=2, ts=100.0):
    return [
        make_transaction(ts + i, USERS[i].address, SINK.address,
                         TokenAmount(50 + i), TxKind.SALE)
        for i in range(n)
    ]


# --- tally_votes ---


def tally(votes, n_active=4):
    """Tally `votes` as arriving one after another at one node."""
    return tally_votes([(float(t), vote) for t, vote in enumerate(votes)],
                       quorum_size(n_active))


def test_three_of_four_commit():
    votes = [make_vote(v.address, 1, "aa" * 32) for v in VALIDATORS[:3]]
    result = tally(votes)
    assert result.block_hash is not None
    assert result.block_hash == "aa" * 32
    assert len(result.voters) == 3


def test_split_vote_no_quorum():
    votes = [make_vote(VALIDATORS[0].address, 1, "aa" * 32),
             make_vote(VALIDATORS[1].address, 1, "aa" * 32),
             make_vote(VALIDATORS[2].address, 1, "bb" * 32)]
    result = tally(votes)
    assert result.block_hash is None
    assert result.best == 2


def test_single_node_degenerate_quorum():
    result = tally([make_vote(VALIDATORS[0].address, 0, "cc" * 32)], n_active=1)
    assert result.block_hash is not None


def test_equivocating_duplicates_first_counted():
    votes = [make_vote(VALIDATORS[0].address, 1, "aa" * 32),
             make_vote(VALIDATORS[0].address, 1, "bb" * 32),  # ignored
             make_vote(VALIDATORS[1].address, 1, "aa" * 32),
             make_vote(VALIDATORS[2].address, 1, "aa" * 32)]
    result = tally(votes)
    assert result.block_hash is not None and result.block_hash == "aa" * 32


def test_tally_counts_on_past_quorum():
    # the commit is fixed at the vote that made quorum; `best` keeps counting
    votes = [make_vote(v.address, 1, "aa" * 32) for v in VALIDATORS]
    result = tally(votes)
    assert result.commit_time == 2.0
    assert result.voters == tuple(v.address for v in VALIDATORS[:3])
    assert result.best == 4


def test_tally_against_exhaustive_assignment_oracle():
    # every assignment of 4 voters to {H1, H2, silent}
    h1, h2 = "11" * 32, "22" * 32
    for assignment in itertools.product([h1, h2, None], repeat=4):
        votes = [make_vote(VALIDATORS[i].address, 0, h)
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


def test_identical_seed_identical_schedule():
    msgs = [Message(VALIDATORS[0].address, VALIDATORS[1].address, float(i), "vote", i)
            for i in range(50)]
    net = NetworkModel(10, 20, drop_probability=0.2)
    a = simulate_network(msgs, net, random.Random(99))
    b = simulate_network(msgs, net, random.Random(99))
    assert a == b


def test_zero_drop_delivers_everything():
    msgs = [Message(VALIDATORS[0].address, VALIDATORS[1].address, 0.0, "vote", i)
            for i in range(100)]
    net = NetworkModel(10, 20, drop_probability=0.0)
    deliveries = simulate_network(msgs, net, random.Random(1))
    assert all(d.deliver_time is not None for d in deliveries)
    assert all(0.010 <= d.deliver_time <= 0.020 for d in deliveries)


def test_drop_rate_law_of_large_numbers():
    msgs = [Message(VALIDATORS[0].address, VALIDATORS[1].address, 0.0, "vote", i)
            for i in range(10_000)]
    net = NetworkModel(10, 20, drop_probability=0.3)
    deliveries = simulate_network(msgs, net, random.Random(7))
    dropped = sum(1 for d in deliveries if d.deliver_time is None)
    assert abs(dropped / 10_000 - 0.3) < 0.02


def test_self_messages_never_dropped():
    msgs = [Message(VALIDATORS[0].address, VALIDATORS[0].address, 1.0, "vote", i)
            for i in range(100)]
    net = NetworkModel(10, 20, drop_probability=0.9)
    deliveries = simulate_network(msgs, net, random.Random(3))
    assert all(d.deliver_time == 1.0 for d in deliveries)


# --- run_round ---


def test_honest_round_commits_and_applies():
    ledger = make_ledger()
    pool = make_pool(ledger)
    result = run_round(pool, ledger, NetworkModel(), ConsensusConfig(4),
                       random.Random(5), round_no=0, start_time=100.0)
    assert result.decision.outcome == "committed"
    assert result.ledger.height == 1
    assert result.decision.votes_counted >= 3
    assert result.commit_time > 100.0
    assert len(result.block.signatures) >= 3


def test_round_is_deterministic():
    ledger = make_ledger()
    pool = make_pool(ledger)
    r1 = run_round(pool, ledger, NetworkModel(), ConsensusConfig(4),
                   random.Random(5), 0, 100.0)
    r2 = run_round(pool, ledger, NetworkModel(), ConsensusConfig(4),
                   random.Random(5), 0, 100.0)
    assert r1.decision == r2.decision
    assert r1.commit_time == r2.commit_time
    assert r1.block.block_hash == r2.block.block_hash


def test_one_equivocator_still_commits_without_fork():
    ledger = make_ledger()
    pool = make_pool(ledger, n=3)
    for seed in range(50):
        net = NetworkModel(byzantine={VALIDATORS[3].address: Behavior.EQUIVOCATE})
        result = run_round(pool, ledger, net, ConsensusConfig(4),
                           random.Random(seed), 0, 100.0)
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
    byz = {VALIDATORS[0].address: leader_behavior} if leader_behavior else {}
    calls = []
    original = Ledger.validate_pool

    def counting(self, txs):
        calls.append(txs)
        return original(self, txs)

    monkeypatch.setattr(Ledger, "validate_pool", counting)
    run_round(pool, ledger, NetworkModel(byzantine=byz), ConsensusConfig(4),
              random.Random(5), round_no=0, start_time=100.0)
    # not one call per delivery: the proposer sends to all 4 validators
    assert len(calls) == proposals
    assert len({tuple(tx.tx_id for tx in txs) for txs in calls}) == proposals


def test_silent_leader_times_out_then_next_leader_commits():
    ledger = make_ledger()
    pool = make_pool(ledger)
    net = NetworkModel(byzantine={VALIDATORS[0].address: Behavior.SILENT})
    engine = ConsensusEngine(ConsensusConfig(4, rng_seed=11), net)
    result, new_ledger, _ = engine.run_until_commit(pool, ledger, 100.0)
    assert result is not None and new_ledger.height == 1
    outcomes = [row.outcome for row in engine.trace]
    assert outcomes[0] in ("no_quorum", "round_timeout")  # silent proposer
    assert outcomes[-1] == "committed"


def test_liveness_under_synchrony_with_tolerable_silence():
    # zero drops, bounded delays, one silent non-leader: every round commits
    ledger = make_ledger()
    pool = make_pool(ledger)
    net = NetworkModel(byzantine={VALIDATORS[2].address: Behavior.SILENT})
    for seed in range(30):
        result = run_round(pool, ledger, net, ConsensusConfig(4),
                           random.Random(seed), 0, 50.0)
        assert result.decision.outcome == "committed"


def test_delay_node_tolerated():
    ledger = make_ledger()
    pool = make_pool(ledger)
    net = NetworkModel(byzantine={VALIDATORS[1].address: Behavior.DELAY})
    result = run_round(pool, ledger, net, ConsensusConfig(4), random.Random(2), 0, 0.0)
    assert result.decision.outcome == "committed"


def test_two_byzantine_beyond_bound_needs_flag():
    ledger = make_ledger()
    byz = {VALIDATORS[2].address: Behavior.SILENT,
           VALIDATORS[3].address: Behavior.SILENT}
    with pytest.raises(UnsafeFaultConfig):
        run_round(make_pool(ledger), ledger, NetworkModel(byzantine=byz),
                  ConsensusConfig(4), random.Random(0), 0, 0.0)
    net = NetworkModel(byzantine=byz, unsafe_faults=True)
    result = run_round(make_pool(ledger), ledger, net, ConsensusConfig(4),
                       random.Random(0), 0, 0.0)
    assert result.decision.outcome == "no_quorum"  # 2 votes can never reach 3


def test_commit_latency_matches_order_statistic_expectation():
    # leader-anchored commit: deadline + (q-1)-th order statistic of n-1
    # iid uniform link delays
    ledger = make_ledger()
    lo, hi, n, q = 10.0, 20.0, 4, 3
    expected_ms = hi + lo + (hi - lo) * (q - 1) / n
    rng = random.Random(123)
    net = NetworkModel(lo, hi)
    cfg = ConsensusConfig(n)
    samples = []
    for i in range(400):
        pool = make_pool(ledger, ts=float(i))
        result = run_round(pool, ledger, net, cfg, rng, i, 0.0)
        assert result.decision.outcome == "committed"
        samples.append(result.commit_time * 1000.0)
    mean = sum(samples) / len(samples)
    assert abs(mean - expected_ms) / expected_ms < 0.05


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
