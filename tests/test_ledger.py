"""Ledger: transactions, blocks, validation, folding, tamper evidence."""

import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from carbonledger import ledger as ledger_mod
from carbonledger.ledger import (
    ACCEPT,
    BAD_SIGNATURE,
    DUPLICATE_TRANSACTION,
    HASH_MISMATCH,
    INSUFFICIENT_TOKENS,
    MALFORMED_AMOUNT,
    MALFORMED_DESCRIPTION,
    UNKNOWN_ADDRESS,
    BrokenChainLink,
    DuplicateCommit,
    EmptyPool,
    Ledger,
    NegativeBalanceWouldResult,
    ParseError,
    QuorumMissing,
    StaleLedger,
    TxKind,
    UnknownAddress,
    block_attestation,
    build_block,
    compute_block_hash,
    create_genesis,
    derive_address,
    export_chain,
    export_wallets,
    import_chain,
    make_transaction,
    max_faulty,
    quorum_size,
    validate_stateless,
    verify_chain,
)
from carbonledger.tokens import TokenAmount


VALIDATORS = [derive_address(f"validator-{i}") for i in range(4)]
ALICE = derive_address("alice")
BOB = derive_address("bob")
MINT = derive_address("mint")
SINK = derive_address("sink")


def tok(s) -> TokenAmount:
    return TokenAmount.from_tokens(s)


def export_text(ledger: Ledger) -> str:
    out = io.StringIO()
    export_chain(ledger, out)
    return out.getvalue()


def fresh_ledger(alice_grant="493.79", bob_grant="493.79") -> Ledger:
    allocs = [
        make_transaction(0.0, MINT, ALICE, tok(alice_grant), TxKind.ALLOCATION),
        make_transaction(0.0, MINT, BOB, tok(bob_grant), TxKind.ALLOCATION),
    ]
    return create_genesis(VALIDATORS, allocs)


def commit(ledger: Ledger, txs, creator=None) -> Ledger:
    block = build_block(txs, creator or VALIDATORS[0], ledger.head)
    signed = block._replace(
        signatures=tuple(sorted(
            (v, block_attestation(v, block.block_hash))
            for v in VALIDATORS
        )),
    )
    return ledger.apply_block(signed)


def payment(sender, receiver, amount, ts=10.0, description="trip:t1"):
    return make_transaction(ts, sender, receiver, tok(amount),
                            TxKind.TRIP_PAYMENT, description)


# --- stateless validation ---


def test_well_formed_trip_payment_accepted():
    tx = payment(ALICE, SINK, "206.00")
    assert validate_stateless(tx) == ACCEPT


def test_zero_amount_rejected():
    tx = payment(ALICE, SINK, "0.00")
    assert validate_stateless(tx).code == MALFORMED_AMOUNT


def test_negative_amount_rejected():
    tx = payment(ALICE, SINK, "-1.00")
    assert validate_stateless(tx).code == MALFORMED_AMOUNT


def test_tampered_tx_id_rejected():
    tx = payment(ALICE, SINK, "206.00")
    bad = tx._replace(tx_id="0" * 64)
    assert validate_stateless(bad).code == HASH_MISMATCH


def test_tampered_payload_rejected():
    tx = payment(ALICE, SINK, "206.00")
    bad = tx._replace(amount_text=str(tok("207.00")))
    assert validate_stateless(bad).code == HASH_MISMATCH


def test_bad_signature_rejected():
    tx = payment(ALICE, SINK, "206.00")
    bad = tx._replace(signature="f" * 64)
    assert validate_stateless(bad).code == BAD_SIGNATURE


@pytest.mark.parametrize("sender", ["nonsense", ALICE + "\n"],
                         ids=["nonsense", "trailing-newline"])
def test_malformed_address_rejected(sender):
    tx = make_transaction(1.0, sender, SINK, tok("1.00"), TxKind.SALE)
    assert validate_stateless(tx).code == UNKNOWN_ADDRESS


def test_self_transfer_rejected():
    tx = make_transaction(1.0, ALICE, ALICE, tok("1.00"), TxKind.SALE)
    assert validate_stateless(tx).code == UNKNOWN_ADDRESS


def test_trip_payment_without_trip_id_rejected():
    tx = make_transaction(1.0, ALICE, SINK, tok("1.00"),
                          TxKind.TRIP_PAYMENT, description="no reference")
    assert validate_stateless(tx).code == MALFORMED_DESCRIPTION


def test_stateless_validation_reads_no_ledger_state():
    # probe: the only live ledger object is booby-trapped; stateless
    # validation must complete without touching it
    ledger = fresh_ledger()

    class Tripwire:
        def __getattr__(self, name):
            raise AssertionError(f"stateless validation read ledger state: {name}")

    trap = Tripwire()
    tx = payment(ALICE, SINK, "206.00")
    assert validate_stateless(tx) == ACCEPT
    del trap, ledger


# --- stateful validation ---


def pool_verdict(ledger, tx):
    """The verdict `validate_pool` gives a one-transaction pool."""
    accepted, rejected = ledger.validate_pool([tx])
    return rejected[0][1] if rejected else ACCEPT


def test_sufficient_balance_accepted():
    ledger = fresh_ledger("493.79")
    tx = payment(ALICE, SINK, "206.00")
    assert pool_verdict(ledger, tx) == ACCEPT


def test_insufficient_balance_rejected_with_both_numbers():
    ledger = fresh_ledger("100.00")
    tx = payment(ALICE, SINK, "150.00")
    res = pool_verdict(ledger, tx)
    assert res.code == INSUFFICIENT_TOKENS
    assert "100.00" in res.detail and "150.00" in res.detail


def test_replayed_tx_rejected():
    ledger = fresh_ledger()
    tx = payment(ALICE, SINK, "10.00")
    ledger = commit(ledger, [tx])
    assert pool_verdict(ledger, tx).code == DUPLICATE_TRANSACTION


# --- block building ---


def test_build_block_contract():
    ledger = fresh_ledger()
    txs = [payment(ALICE, SINK, f"{i + 1}.00", ts=float(i))
           for i in range(3)]
    for _ in range(7):
        ledger = commit(ledger, [payment(ALICE, SINK, "1.00",
                                         ts=float(ledger.height))])
    block = build_block(txs, VALIDATORS[1], ledger.head)
    assert block.height == ledger.height + 1
    assert block.prev_hash == ledger.head.block_hash
    assert len(block.txs) == 3
    assert block.signatures == ()


def test_equal_timestamps_tie_break_by_tx_id():
    a = payment(ALICE, SINK, "1.00", ts=5.0)
    b = payment(BOB, SINK, "2.00", ts=5.0)
    ledger = fresh_ledger()
    block = build_block([a, b], VALIDATORS[0], ledger.head)
    reversed_block = build_block([b, a], VALIDATORS[0], ledger.head)
    # oracle: sort both presentations by the documented key
    expected = sorted([a, b], key=lambda tx: (tx.timestamp, tx.tx_id))
    assert list(block.txs) == expected
    assert block.txs == reversed_block.txs
    assert block.block_hash == reversed_block.block_hash


def test_pool_with_internal_dependency_validates_sequentially():
    # second transaction spends what the first delivers
    ledger = fresh_ledger("0.00", "50.00")
    t1 = make_transaction(1.0, BOB, ALICE, tok("30.00"), TxKind.SALE)
    t2 = make_transaction(2.0, ALICE, SINK, tok("25.00"),
                          TxKind.TRIP_PAYMENT, "trip:t9")
    accepted, rejected = ledger.validate_pool([t1, t2])
    assert len(accepted) == 2 and not rejected
    # alone, the dependent transaction fails
    assert pool_verdict(ledger, t2).code == INSUFFICIENT_TOKENS


def test_empty_pool_rejected():
    ledger = fresh_ledger()
    with pytest.raises(EmptyPool):
        build_block([], VALIDATORS[0], ledger.head)


# --- applying blocks ---


def test_apply_requires_quorum():
    ledger = fresh_ledger()
    block = build_block([payment(ALICE, SINK, "1.00")],
                        VALIDATORS[0], ledger.head)
    with pytest.raises(QuorumMissing):
        ledger.apply_block(block)  # unsigned proposal


def test_apply_requires_chain_link():
    ledger = fresh_ledger()
    other = fresh_ledger("1.00", "1.00")
    block = build_block([payment(ALICE, SINK, "1.00")],
                        VALIDATORS[0], other.head)
    block = block._replace(prev_hash="f" * 64,
                           block_hash=compute_block_hash(
                               block.height, "f" * 64, block.txs, block.creator))
    with pytest.raises(BrokenChainLink):
        ledger.apply_block(block)


def test_apply_is_pure_and_refold_matches():
    ledger = fresh_ledger()
    before = dict(ledger.balances)
    ledger2 = commit(ledger, [payment(ALICE, SINK, "10.00")])
    assert dict(ledger.balances) == before  # original untouched
    refolded = import_chain(export_text(ledger2))
    assert refolded.balances == ledger2.balances
    assert refolded.minted_centi == ledger2.minted_centi


def test_minting_totals_accumulate():
    n, grant = 25, tok("493.79")
    users = [derive_address(f"u{i}") for i in range(n)]
    allocs = [make_transaction(0.0, MINT, u, grant, TxKind.ALLOCATION)
              for u in users]
    ledger = create_genesis(VALIDATORS, allocs)
    assert ledger.minted_centi == grant.centi * n
    assert sum(ledger.balances.values()) == ledger.minted_centi


# --- persistence: values share state, and only the tip can be read ---


def snapshot(ledger: Ledger):
    return (dict(ledger.balances), dict(ledger.tx_index), ledger.chain,
            ledger.minted_centi, ledger.head)


def signed_block(ledger: Ledger, txs):
    block = build_block(txs, VALIDATORS[0], ledger.head)
    return block._replace(signatures=tuple(sorted(
        (v, block_attestation(v, block.block_hash)) for v in VALIDATORS
    )))


@pytest.mark.parametrize("failure", ["overspend", "replay"])
def test_block_failing_part_way_leaves_input_unchanged(failure):
    ledger = fresh_ledger("100.00", "100.00")
    spent = payment(BOB, SINK, "1.00", ts=3.0, description="trip:t0")
    ledger = commit(ledger, [spent])
    before = snapshot(ledger)
    first = payment(ALICE, SINK, "60.00", ts=1.0)  # folds cleanly
    second = (payment(ALICE, SINK, "60.00", ts=2.0, description="trip:t2")
              if failure == "overspend" else spent)
    block = signed_block(ledger, [first, second])
    assert block.txs[0] == first
    with pytest.raises(NegativeBalanceWouldResult if failure == "overspend"
                       else DuplicateCommit):
        ledger.apply_block(block)
    assert snapshot(ledger) == before
    assert first.tx_id not in ledger.tx_index
    after = commit(ledger, [first])
    assert after.balance(ALICE) == tok("40.00")
    assert after.tx_index[first.tx_id] == (2, 0)
    assert after.minted_centi == before[3]
    with pytest.raises(StaleLedger):
        snapshot(ledger)


def test_two_children_of_one_parent_stay_independent():
    parent = fresh_ledger("100.00", "100.00")
    pay_a = payment(ALICE, SINK, "10.00")
    pay_b = payment(BOB, ALICE, "25.00", ts=11.0, description="trip:t2")
    child_a = commit(parent, [pay_a])
    child_b = commit(parent, [pay_b])
    assert child_a.head.block_hash != child_b.head.block_hash

    assert child_a.balance(ALICE) == tok("90.00")
    assert parent.balance(ALICE) == tok("100.00")
    assert child_b.balance(ALICE) == tok("125.00")
    assert pay_a.tx_id in child_a.tx_index and pay_b.tx_id not in child_a.tx_index
    assert child_b.chain[-1].txs == (pay_b,)
    assert parent.chain == (parent.head,) and SINK not in parent.balances
    assert child_a.chain[-1].txs == (pay_a,)
    assert child_b.balance(SINK) == tok("0.00")
    assert child_a.balance(SINK) == tok("10.00")
    # extending one child leaves its sibling, which owns a copy of the
    # root's state, as it was
    grandchild = commit(child_b, [pay_a])
    assert child_a.balance(ALICE) == tok("90.00")
    assert grandchild.balance(ALICE) == tok("115.00")
    assert [len(v.chain) for v in (parent, child_a, grandchild)] == [1, 2, 3]
    assert verify_chain(grandchild).ok and verify_chain(child_a).ok
    # a derived value has one successor: a second one raises
    with pytest.raises(StaleLedger):
        commit(child_b, [payment(BOB, SINK, "1.00", ts=12.0)])
    assert grandchild.chain[-1].txs == (pay_a,)


def stale_reads(ledger: Ledger):
    """Every read of a ledger value's state or chain, one callable each."""
    return {
        "balances": lambda: ledger.balances,
        "tx_index": lambda: ledger.tx_index,
        "minted_centi": lambda: ledger.minted_centi,
        "balance": lambda: ledger.balance(ALICE),
        "transfers": lambda: ledger.transfers(TxKind.ALLOCATION),
        "chain": lambda: ledger.chain,
        "query_history": lambda: ledger.query_history(ALICE),
        "verify_chain": lambda: verify_chain(ledger),
        "validate_pool": lambda: ledger.validate_pool([payment(ALICE, SINK, "1.00")]),
        "apply_block": lambda: ledger.apply_block(signed_block(ledger, [
            payment(ALICE, SINK, "1.00", ts=99.0, description="trip:stale")])),
    }


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tip_matches_dict_copy_oracle(data):
    # oracle: the tip's state as an eager ledger would copy it on every block
    parties = [ALICE, BOB, SINK]
    root = tip = fresh_ledger("20.00", "20.00")
    oracle = root_oracle = snapshot(root)
    superseded = []
    for step in range(data.draw(st.integers(1, 25))):
        if superseded and data.draw(st.booleans()):
            old = data.draw(st.sampled_from(superseded))
            read = data.draw(st.sampled_from(sorted(stale_reads(old))))
            with pytest.raises(StaleLedger):
                stale_reads(old)[read]()
            continue
        balances, tx_index, chain, minted, _ = oracle
        sender = data.draw(st.sampled_from(parties))
        receiver = data.draw(st.sampled_from([p for p in parties if p != sender]))
        amount = data.draw(st.integers(1, 2500))
        kind = data.draw(st.sampled_from([TxKind.SALE, TxKind.ALLOCATION]))
        tx = make_transaction(float(step), sender, receiver, TokenAmount(amount), kind)
        block = signed_block(tip, [tx])
        if kind is TxKind.SALE and balances.get(sender, 0) < amount:
            with pytest.raises(NegativeBalanceWouldResult):
                tip.apply_block(block)
        else:
            balances = dict(balances)
            if kind is TxKind.SALE:
                balances[sender] -= amount
            balances[receiver] = balances.get(receiver, 0) + amount
            minted += amount if kind is TxKind.ALLOCATION else 0
            new = tip.apply_block(block)
            # the root keeps its state; every value derived from it goes stale
            if tip.height > 0:
                superseded.append(tip)
            tip = new
            oracle = (balances, {**tx_index, tx.tx_id: (block.height, 0)},
                      chain + (block,), minted, block)
        assert snapshot(tip) == oracle
    assert snapshot(root) == root_oracle


def test_superseded_value_raises_stale_ledger(monkeypatch):
    root = fresh_ledger("500.00", "500.00")
    old = commit(root, [payment(ALICE, SINK, "1.00", ts=1.0, description="trip:a")])
    head, validators = old.head, old.validators
    new = commit(old, [payment(ALICE, BOB, "2.00", ts=2.0, description="trip:c")])
    folds = []
    fold = ledger_mod.fold_transaction
    monkeypatch.setattr(ledger_mod, "fold_transaction",
                        lambda balances, tx: folds.append(tx) or fold(balances, tx))
    for read in stale_reads(old).values():
        with pytest.raises(StaleLedger):
            read()
    assert folds == []  # nothing refolds
    # a value's own fields stay readable
    assert (old.head, old.height, old.validators, old.quorum) == (head, 1, validators, 3)
    # the tip and the root still read as they did
    assert new.balance(ALICE) == tok("497.00") and len(new.chain) == 3
    assert root.balance(ALICE) == tok("500.00") and root.chain == new.chain[:1]
    assert verify_chain(new).ok


# --- chain verification ---


def build_chain(n_blocks=10) -> Ledger:
    ledger = fresh_ledger("1000.00", "1000.00")
    for i in range(n_blocks):
        sender, receiver = (ALICE, BOB) if i % 2 == 0 else (BOB, ALICE)
        ledger = commit(ledger, [
            make_transaction(float(i + 1), sender, receiver,
                             tok("5.00"), TxKind.SALE, f"hop {i}")
        ])
    return ledger


def test_honest_chain_verifies_clean():
    report = verify_chain(build_chain(10))
    assert report.ok


def test_amount_flip_reported_at_height_and_links_break_after():
    ledger = build_chain(10)
    target = 5
    block = ledger.chain[target]
    bad_tx = block.txs[0]._replace(amount_text=str(tok("6.00")))
    bad_block = block._replace(txs=(bad_tx,) + block.txs[1:])
    chain = ledger.chain[:target] + (bad_block,) + ledger.chain[target + 1:]
    report = verify_chain(Ledger(chain, ledger.validators))
    kinds = {(v.height, v.kind) for v in report.violations}
    assert (target, "block_hash_mismatch") in kinds or (target, "tx_hash_mismatch") in kinds
    # the recomputed-hash cascade breaks every later link
    for h in range(target + 1, 11):
        assert (h, "broken_link") in kinds


def test_injected_state_mismatch_reported():
    ledger = build_chain(3)
    ledger._state()[0][ALICE] += 100  # the wallet map `apply_block` derived
    report = verify_chain(ledger)
    assert [v.kind for v in report.violations] == ["state_mismatch"]
    # a root built from the same chain folds it, so there is nothing to mismatch
    assert verify_chain(Ledger(ledger.chain, ledger.validators)).ok


def test_every_single_field_mutation_detected():
    ledger = build_chain(8)
    rng = random.Random(42)
    for _ in range(200):
        mutated = mutate_one_field(ledger, rng)
        assert not verify_chain(mutated).ok


def mutate_one_field(ledger: Ledger, rng: random.Random) -> Ledger:
    """Corrupt one committed field of one block; used by the tamper suites."""
    chain = list(ledger.chain)
    i = rng.randrange(len(chain))
    block = chain[i]
    choice = rng.choice(["amount", "timestamp", "sender", "receiver", "description",
                         "kind", "tx_id", "signature", "height", "prev_hash",
                         "creator", "block_hash", "attestation"])

    def flip_hex(s: str) -> str:
        pos = rng.randrange(len(s))
        old = s[pos]
        new = rng.choice([c for c in "0123456789abcdef" if c != old])
        return s[:pos] + new + s[pos + 1:]

    if choice in ("amount", "timestamp", "sender", "receiver", "description",
                  "kind", "tx_id", "signature") and block.txs:
        j = rng.randrange(len(block.txs))
        tx = block.txs[j]
        if choice == "amount":
            tx = tx._replace(amount_text=str(tx.amount + TokenAmount(1)))
        elif choice == "timestamp":
            tx = tx._replace(timestamp=tx.timestamp + 0.001)
        elif choice == "sender":
            tx = tx._replace(sender=flip_hex(tx.sender))
        elif choice == "receiver":
            tx = tx._replace(receiver=flip_hex(tx.receiver))
        elif choice == "description":
            tx = tx._replace(description=tx.description + "x")
        elif choice == "kind":
            new_kind = TxKind.SALE if tx.kind is not TxKind.SALE else TxKind.PURCHASE
            tx = tx._replace(kind_text=new_kind.value)
        elif choice == "tx_id":
            tx = tx._replace(tx_id=flip_hex(tx.tx_id))
        else:
            tx = tx._replace(signature=flip_hex(tx.signature))
        block = block._replace(txs=block.txs[:j] + (tx,) + block.txs[j + 1:])
    elif choice == "height":
        block = block._replace(height=block.height + 1)
    elif choice == "prev_hash":
        block = block._replace(prev_hash=flip_hex(block.prev_hash))
    elif choice == "creator":
        block = block._replace(creator=flip_hex(block.creator))
    elif choice == "block_hash":
        block = block._replace(block_hash=flip_hex(block.block_hash))
    else:  # attestation
        sigs = list(block.signatures)
        k = rng.randrange(len(sigs))
        addr, att = sigs[k]
        if rng.random() < 0.5:
            sigs[k] = (flip_hex(addr), att)
        else:
            sigs[k] = (addr, flip_hex(att))
        block = block._replace(signatures=tuple(sigs))

    chain[i] = block
    return Ledger(chain, ledger.validators)


# --- history ---


def test_history_replay_matches_balance():
    ledger = fresh_ledger("500.00", "0.00")
    ledger = commit(ledger, [payment(ALICE, SINK, "206.00", ts=1.0,
                                     description="trip:a;vehicle:veh-alice")])
    ledger = commit(ledger, [payment(ALICE, SINK, "100.00", ts=2.0,
                                     description="trip:b;vehicle:veh-alice")])
    history = ledger.query_history(ALICE)
    assert len(history) == 3  # allocation + two payments
    running = 0
    for tx in history:
        running += tx.amount.centi if tx.receiver == ALICE else -tx.amount.centi
    assert running == ledger.balance(ALICE).centi
    # the vehicle shows up in descriptions, never as a party
    assert all("veh-alice" in tx.description for tx in history[1:])
    assert all(tx.sender != derive_address("veh-alice") for tx in history)


def test_history_of_idle_address_raises():
    ledger = fresh_ledger()
    with pytest.raises(UnknownAddress):
        ledger.query_history(SINK)


def test_history_agrees_in_memory_and_imported():
    ledger = commit(fresh_ledger(), [payment(ALICE, SINK, "10.00")])
    imported = import_chain(export_text(ledger))

    def history(value, owner):
        try:
            return value.query_history(owner)
        except UnknownAddress:
            return "unknown"

    for owner in (ALICE, BOB, SINK, MINT, VALIDATORS[0], "ab" * 20):
        assert history(ledger, owner) == history(imported, owner)
    assert history(ledger, VALIDATORS[0]) == "unknown"


def test_history_unknown_address_raises():
    ledger = fresh_ledger()
    with pytest.raises(UnknownAddress):
        ledger.query_history("ab" * 20)


# --- export / import ---


def test_export_import_round_trip():
    ledger = build_chain(5)
    text = export_text(ledger)
    again = import_chain(text)
    assert export_text(again) == text
    assert again.head.block_hash == ledger.head.block_hash
    # the genesis signature set recovers the validators (order is not carried)
    assert set(again.validators) == set(ledger.validators)
    assert verify_chain(again).ok


def import_with(tx_fields=None, **block_fields):
    """Import a genesis-only export whose first tx and whose block carry the
    given field values."""
    obj = json.loads(export_text(fresh_ledger()).splitlines()[0])
    obj["txs"][0].update(tx_fields or {})
    obj.update(block_fields)
    return import_chain(json.dumps(obj) + "\n")


@pytest.mark.parametrize("value", [
    "abc", "", "1.2.3", "NaN", "Infinity", "9" * 27 + ".00", None, True, [], {},
    # a value `export_chain` writes, spelled in a form it never writes
    "52.430", "+52.43", "52.4", " 52.43",
])
def test_import_rejects_malformed_amounts(value):
    with pytest.raises(ParseError, match="^line 1: "):
        import_with({"amount": value})


@pytest.mark.parametrize("text", ["0.00", "0e0", "0.0e+0"])
def test_import_rejects_timestamps_spelled_another_way(text):
    # the genesis timestamp 0.0, spelled in forms `export_chain` never writes
    line = export_text(fresh_ledger()).splitlines()[0]
    assert '"timestamp":0.0,' in line
    with pytest.raises(ParseError, match="^line 1: "):
        import_chain(line.replace('"timestamp":0.0,', f'"timestamp":{text},', 1) + "\n")


@pytest.mark.parametrize("kind", ["bogus", "", "ALLOCATION", 7, None, ["allocation"],
                                  {"allocation": 1}])
def test_import_rejects_unknown_kinds(kind):
    with pytest.raises(ParseError, match="^line 1: "):
        import_with({"kind": kind})


@pytest.mark.parametrize("tx_fields, block_fields", [
    ({"description": 7}, {}),
    ({"sender": 7}, {}),
    ({"receiver": ["ab" * 20]}, {}),
    ({"tx_id": None}, {}),
    ({"signature": 1.5}, {}),
    ({}, {"prev_hash": 0}),
    ({}, {"creator": None}),
    ({}, {"block_hash": {"h": 1}}),
    ({}, {"signatures": [[1, "ab"]]}),
    ({}, {"signatures": [["ab", None]]}),
])
def test_import_rejects_fields_that_are_not_strings(tx_fields, block_fields):
    with pytest.raises(ParseError, match="^line 1: .*string"):
        import_with(tx_fields, **block_fields)


def test_wallet_export_format():
    ledger = fresh_ledger("10.00", "20.50")
    text = export_wallets(ledger)
    lines = text.strip().splitlines()
    assert lines[0] == "address,balance"
    balances = dict(line.split(",") for line in lines[1:])
    assert balances[ALICE] == "10.00"
    assert balances[BOB] == "20.50"


# --- quorum arithmetic and no-double-spend property ---


def test_quorum_arithmetic_bounds():
    for n in range(1, 101):
        q, f = quorum_size(n), max_faulty(n)
        assert q + f <= n
        assert 2 * q > n + f  # any two quorums intersect in an honest node
        assert q > n - q


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_no_double_spend_vs_sequential_oracle(data):
    # adversarially ordered pools never drive a committed balance negative
    balances = {
        ALICE: data.draw(st.integers(0, 2000)),
        BOB: data.draw(st.integers(0, 2000)),
    }
    allocs = [
        make_transaction(0.0, MINT, addr, TokenAmount(c), TxKind.ALLOCATION)
        for addr, c in balances.items() if c > 0
    ]
    ledger = create_genesis(VALIDATORS, allocs)

    parties = [ALICE, BOB, SINK]
    n_txs = data.draw(st.integers(1, 20))
    pool = []
    for i in range(n_txs):
        s = data.draw(st.sampled_from(parties))
        r = data.draw(st.sampled_from([p for p in parties if p != s]))
        amt = data.draw(st.integers(1, 1500))
        pool.append(make_transaction(float(i), s, r, TokenAmount(amt), TxKind.SALE))

    accepted, _ = ledger.validate_pool(pool)
    # oracle: replay the pool sequentially against plain integer balances
    oracle = dict(balances)
    oracle[SINK] = 0
    expected = []
    for tx in pool:
        if oracle.get(tx.sender, 0) >= tx.amount.centi:
            oracle[tx.sender] -= tx.amount.centi
            oracle[tx.receiver] = oracle.get(tx.receiver, 0) + tx.amount.centi
            expected.append(tx.tx_id)
    assert [tx.tx_id for tx in accepted] == expected

    if accepted:
        committed = commit(ledger, accepted)
        assert all(v >= 0 for v in committed.balances.values())
        assert sum(committed.balances.values()) == committed.minted_centi
