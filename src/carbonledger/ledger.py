"""Append-only hash-chained token ledger.

A `Ledger` value is a block chain plus the wallet state obtained by folding
it.  The single consensus commit path extends it: `apply_block` returns a
new value, and only the newest one, the tip, has state.

A root (from `create_genesis`, `import_chain` or the constructor) is only
its blocks and its validator addresses: the first read of its balances, tx
index or minted total folds its chain, and reading `chain`, `head` or
`height` folds nothing.  A root's state is never written after its fold,
and the first `apply_block` on a root copies it, so many values can be
derived from one root.  The values derived from there share one wallet
map, tx index and block list, so a commit costs O(block) rather than
O(wallets + height).  A derived value owns them while its head is their
last block; once it is extended, reading its state or chain, or extending
it again, raises `StaleLedger`.  Its `head`, `height`, `validators` and
`quorum` are its own and stay readable.

`balances` and `tx_index` are read-only views of the maps a value owns.  A
view shows the value's state until that value is extended; copy it
(`dict(ledger.balances)`) to keep it longer.  A failed `apply_block` writes
nothing.

Wallet state is only ever changed by `fold_transaction`, which folds one
transaction into a balance map: a root's first read, `apply_block`,
`validate_pool`, `verify_chain` and the simulator's pending batch all use
it.  It never refuses a transfer; each caller checks the sender's balance as
it needs to (reject the transaction, raise, or report a violation).

A transaction has one form, built or imported: a `TokenTransaction` tuple of
the export's fields in the export's order, its amount and kind held as the
text the export writes and the hashes cover (`amount_text`, `kind_text`).
`make_transaction` renders that text once; the `amount` and `kind`
properties read it back as a `TokenAmount` and a `TxKind`.  A `Block` is a
tuple too, so `import_chain` builds each block and transaction straight
from its line, and `verify_chain`, the folds and `Ledger.transfers()` read
the stored text as it is, with no second form to convert to.

`export_chain` writes a chain to an open text file one transaction's JSON
at a time, and `import_chain` reads an open file one line at a time, so
neither holds the whole export as text, and the export holds no whole
block line either.  Bytes that are not UTF-8 raise
`UnicodeDecodeError` from whichever line holds them; the caller that opened
the file reports it (the CLI exits 2 for it, as for any malformed export).

Transaction and block hashes are SHA-256 over canonical field strings.
Signatures are keyed digests bound to the signer's address — a desk-scale
stand-in that keeps the quorum arithmetic honest while leaving room to swap
in real asymmetric signatures behind the same interface.  A transaction is
signed when it is made.  A block is proposed unsigned: `apply_block` takes
it with the addresses of its quorum voters and writes each voter's
attestation once, as it appends the block.  `verify_chain` checks every
attestation of a chain, built or imported, one at a time.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, TextIO

from .tokens import TokenAmount, check_amount_text

HASH_ALGORITHM = "sha256"
GENESIS_PREV_HASH = "0" * 64
ADDRESS_LEN = 40

_ADDRESS_RE = re.compile(r"[0-9a-f]{40}")


def digest(*parts: str) -> str:
    """SHA-256 over the parts, each followed by a 0x1f separator."""
    text = "\x1f".join(parts) + "\x1f" if parts else ""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def derive_address(node_id: str) -> str:
    """Ledger address uniquely derived from a node id."""
    return digest("addr", node_id)[:ADDRESS_LEN]


def sign_payload(address: str, payload_digest: str) -> str:
    """Attestation by the holder of `address` over a payload digest."""
    return digest("sig", address, payload_digest)


def block_attestation(address: str, block_hash: str) -> str:
    """Validator attestation over a committed block hash."""
    return digest("commit", address, block_hash)


def quorum_size(n_active: int) -> int:
    """ceil(2n/3) — supermajority needed to commit."""
    return (2 * n_active + 2) // 3


def max_faulty(n_active: int) -> int:
    """floor((n-1)/3) — byzantine nodes tolerated without losing safety."""
    return (n_active - 1) // 3


class TxKind(Enum):
    ALLOCATION = "allocation"
    TRIP_PAYMENT = "trip_payment"
    PURCHASE = "purchase"
    SALE = "sale"
    OPERATOR_SETTLEMENT = "operator_settlement"


_ALLOCATION_VALUE = TxKind.ALLOCATION.value
_TRIP_PAYMENT_VALUE = TxKind.TRIP_PAYMENT.value
_KINDS = {kind.value: kind for kind in TxKind}
# each kind's text, so that the transactions of an import share one string per kind
_KIND_VALUES = {kind.value: kind.value for kind in TxKind}


def _centi(amount_text: str) -> int:
    """The centi-tokens of an amount's text, "-?<whole>.<2 digits>" as
    `str(TokenAmount)` writes it."""
    return int(amount_text.replace(".", ""))


class TokenTransaction(NamedTuple):
    """A transaction as the export writes it: its fields in the export's
    order, the amount and kind as their text."""

    tx_id: str
    timestamp: float
    sender: str
    receiver: str
    amount_text: str
    kind_text: str
    description: str = ""
    signature: str = ""

    @property
    def amount(self) -> TokenAmount:
        return TokenAmount(_centi(self.amount_text))

    @property
    def kind(self) -> TxKind:
        return _KINDS[self.kind_text]

    def payload_fields(self) -> tuple[str, ...]:
        """Every field except tx_id and signature, as hashed."""
        return (repr(self.timestamp), self.sender, self.receiver, self.amount_text,
                self.kind_text, self.description)

    def canonical(self) -> str:
        """Full record line, the unit hashed into blocks."""
        return _canonical_line(self.tx_id, self.payload_fields(), self.signature)


# `verify_chain` renders each tx once and derives both forms below from it
def _payload_digest(fields: tuple[str, ...]) -> str:
    return digest("tx", *fields)


def _canonical_line(tx_id: str, fields: tuple[str, ...], signature: str) -> str:
    return "|".join((tx_id, *fields, signature))


def make_transaction(
    timestamp: float,
    sender: str,
    receiver: str,
    amount: TokenAmount,
    kind: TxKind,
    description: str = "",
) -> TokenTransaction:
    """Build a signed transaction; tx_id is the payload digest."""
    amount_text = str(amount)
    tx_id = _payload_digest(
        (repr(timestamp), sender, receiver, amount_text, kind.value, description))
    return TokenTransaction(tx_id, timestamp, sender, receiver, amount_text, kind.value,
                            description, sign_payload(sender, tx_id))


class Block(NamedTuple):
    height: int
    prev_hash: str
    txs: tuple[TokenTransaction, ...]
    creator: str
    block_hash: str
    # (validator address, attestation) pairs, sorted by address
    signatures: tuple[tuple[str, str], ...] = ()


def compute_block_hash(
    height: int, prev_hash: str, txs: Sequence[TokenTransaction], creator: str
) -> str:
    return _block_digest(height, prev_hash, creator, [tx.canonical() for tx in txs])


def _block_digest(height: int, prev_hash: str, creator: str, lines: Sequence[str]) -> str:
    """Block hash over the canonical lines of its transactions."""
    return digest("blk", str(height), prev_hash, creator, *lines)


# --- validation -------------------------------------------------------------

MALFORMED_AMOUNT = "malformed_amount"
UNKNOWN_ADDRESS = "unknown_address"
BAD_SIGNATURE = "bad_signature"
HASH_MISMATCH = "hash_mismatch"
MALFORMED_DESCRIPTION = "malformed_description"
INSUFFICIENT_TOKENS = "insufficient_tokens"
DUPLICATE_TRANSACTION = "duplicate_transaction"


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    code: Optional[str] = None
    detail: str = ""


ACCEPT = ValidationResult(True)


def _reject(code: str, detail: str) -> ValidationResult:
    return ValidationResult(False, code, detail)


def validate_stateless(tx: TokenTransaction) -> ValidationResult:
    """Well-formedness only: reads no ledger state by construction."""
    return _check_stateless(tx.tx_id, tx.payload_fields(), tx.signature)


def _check_stateless(tx_id: str, fields: tuple[str, ...], signature: str) -> ValidationResult:
    """`validate_stateless` on plain values: a transaction's id, its payload
    fields as hashed (amount and kind as text) and its signature."""
    _, sender, receiver, amount, kind, description = fields
    if amount[0] == "-" or amount == "0.00":
        return _reject(MALFORMED_AMOUNT, f"amount must be positive, got {amount}")
    for label, addr in (("sender", sender), ("receiver", receiver)):
        if not _ADDRESS_RE.fullmatch(addr):
            return _reject(UNKNOWN_ADDRESS, f"{label} address malformed: {addr!r}")
    if sender == receiver:
        return _reject(UNKNOWN_ADDRESS, "sender and receiver are the same address")
    if kind == _TRIP_PAYMENT_VALUE and "trip:" not in description:
        return _reject(MALFORMED_DESCRIPTION, "trip payment carries no trip id")
    if _payload_digest(fields) != tx_id:
        return _reject(HASH_MISMATCH, "tx_id does not match recomputed payload hash")
    if signature != sign_payload(sender, tx_id):
        return _reject(BAD_SIGNATURE, "signature does not verify against sender")
    return ACCEPT


# --- errors -----------------------------------------------------------------


class LedgerError(Exception):
    pass


class EmptyPool(LedgerError):
    pass


class BrokenChainLink(LedgerError):
    pass


class QuorumMissing(LedgerError):
    pass


class NegativeBalanceWouldResult(LedgerError):
    """Internal bug signal: stateful validation should have prevented this."""


class DuplicateCommit(LedgerError):
    """Internal bug signal: a committed tx_id was applied twice."""


class UnknownAddress(LedgerError):
    pass


class ParseError(LedgerError):
    pass


class StaleLedger(LedgerError):
    """A ledger value was read or extended after it had been extended."""


# --- ledger -----------------------------------------------------------------


class Ledger:
    """Chain plus derived wallet state; only the tip can be read or extended.

    The constructor makes a root from a chain and its validator addresses,
    built or imported alike; the root folds its chain the first time its
    state is read (see the module docstring).
    """

    __slots__ = ("validators", "_derived", "_head", "_blocks", "_balances", "_tx_index",
                 "_minted")

    def __init__(self, chain: Sequence[Block], validators: Iterable[str]):
        self.validators = tuple(validators)
        self._derived = False  # whether `apply_block` made this value
        self._blocks = list(chain)
        self._head = self._blocks[-1] if self._blocks else None
        self._balances: Optional[dict[str, int]] = None  # until the first read

    def _tip_blocks(self) -> list[Block]:
        """This value's block list, which each value derived from it appends
        to: a derived value owns it while its head is the last block."""
        if self._derived and self._blocks[-1] is not self._head:
            raise StaleLedger(f"the ledger value at height {self._head.height} was extended")
        return self._blocks

    def _state(self) -> tuple[dict[str, int], dict[str, tuple[int, int]], list[Block]]:
        """This value's wallet map, tx index and block list; a root folds on first read."""
        if self._balances is None:
            self._balances, self._tx_index, self._minted = _fold_blocks(self._blocks, {}, {})
        return self._balances, self._tx_index, self._tip_blocks()

    # -- introspection --

    @property
    def chain(self) -> tuple[Block, ...]:
        return tuple(self._tip_blocks())  # folds nothing

    @property
    def minted_centi(self) -> int:
        self._state()
        return self._minted

    @property
    def balances(self) -> Mapping[str, int]:
        """Read-only view; see the module docstring for how long it holds."""
        return MappingProxyType(self._state()[0])

    @property
    def tx_index(self) -> Mapping[str, tuple[int, int]]:
        """Read-only view; see the module docstring for how long it holds."""
        return MappingProxyType(self._state()[1])

    @property
    def head(self) -> Block:
        return self._head

    @property
    def height(self) -> int:
        return self.head.height

    @property
    def quorum(self) -> int:
        return quorum_size(len(self.validators))

    def balance(self, address: str) -> TokenAmount:
        return TokenAmount(self.balances.get(address, 0))

    def transfers(self, kind: TxKind) -> Iterator[tuple[int, str, str, str, TokenAmount]]:
        """(height, sender, receiver, description, amount) of each committed
        transaction of `kind`, genesis first."""
        value = kind.value
        return ((block.height, tx.sender, tx.receiver, tx.description,
                 TokenAmount(_centi(tx.amount_text)))
                for block in self.chain for tx in block.txs if tx.kind_text == value)

    # -- stateful validation --

    def validate_pool(
        self, pool: Sequence[TokenTransaction]
    ) -> tuple[list[TokenTransaction], list[tuple[TokenTransaction, ValidationResult]]]:
        """Stateless checks, then replay and balance checks, in order: later
        transactions see earlier ones' effects.  Read-only.

        Returns (accepted, rejected-with-reason).
        """
        scratch = Overlay(self.balances)
        tx_index = self.tx_index
        seen = set()
        accepted: list[TokenTransaction] = []
        rejected: list[tuple[TokenTransaction, ValidationResult]] = []
        for tx in pool:
            res = validate_stateless(tx)
            if res.ok:
                if tx.tx_id in seen or tx.tx_id in tx_index:
                    res = _reject(DUPLICATE_TRANSACTION, f"tx {tx.tx_id[:12]} duplicated")
                elif tx.kind_text != _ALLOCATION_VALUE:
                    have = scratch.get(tx.sender, 0)
                    if have < _centi(tx.amount_text):
                        res = _reject(
                            INSUFFICIENT_TOKENS,
                            f"balance {TokenAmount(have)}, requested {tx.amount_text}",
                        )
            if res.ok:
                fold_transaction(scratch, tx)
                seen.add(tx.tx_id)
                accepted.append(tx)
            else:
                rejected.append((tx, res))
        return accepted, rejected

    # -- commit path --

    def apply_block(self, block: Block, signers: Iterable[str]) -> "Ledger":
        """Attest and fold one committed block; returns a new ledger value.

        `block` is the unsigned proposal and `signers` the addresses of its
        quorum voters.  Each distinct signer that is a validator of this
        ledger counts once, and the others are left out; the block is
        appended with one `block_attestation` per counted signer, sorted by
        address.  Every check runs before the shared structures are written,
        so a block that fails leaves this value exactly as it was.  Once one
        succeeds, a derived value is stale (see the module docstring).
        """
        balances, tx_index, blocks = self._state()
        if block.prev_hash != self.head.block_hash or block.height != self.height + 1:
            raise BrokenChainLink(
                f"block {block.height} does not extend head {self.height}"
            )
        if block.signatures:
            raise LedgerError(f"block {block.height} is already signed")
        counted = set(signers).intersection(self.validators)
        if len(counted) < self.quorum:
            raise QuorumMissing(
                f"{len(counted)} validator signers, quorum is {self.quorum}"
            )
        written = Overlay(balances)
        indexed: dict[str, tuple[int, int]] = {}
        minted = 0
        for pos, tx in enumerate(block.txs):
            if tx.tx_id in tx_index or tx.tx_id in indexed:
                raise DuplicateCommit(tx.tx_id)
            minted += fold_transaction(written, tx)
            if tx.kind_text != _ALLOCATION_VALUE and written[tx.sender] < 0:
                raise NegativeBalanceWouldResult(
                    f"{tx.sender} would hold {TokenAmount(written[tx.sender])} "
                    f"after paying {tx.amount_text}")
            indexed[tx.tx_id] = (block.height, pos)
        # conservation is asserted on every commit: transfers cannot create
        # or destroy tokens, only allocations mint.  This value's wallets sum
        # to its minted total (verify_chain re-sums the whole fold), so the
        # new value's do exactly when the block's net delta equals its mint.
        if sum(c - balances.get(a, 0) for a, c in written.items()) != minted:
            raise LedgerError("token conservation broken after block "
                              f"{block.height}: wallets != minted")
        if not self._derived:  # a root's state is never written after its fold
            balances, tx_index, blocks = dict(balances), dict(tx_index), list(blocks)
        block_hash = block.block_hash
        block = block._replace(signatures=tuple(
            [(addr, block_attestation(addr, block_hash)) for addr in sorted(counted)]))
        balances.update(written)
        tx_index.update(indexed)
        blocks.append(block)
        new = Ledger.__new__(Ledger)
        new.validators = self.validators
        new._minted = self._minted + minted
        new._derived, new._head = True, block
        new._balances, new._tx_index, new._blocks = balances, tx_index, blocks
        return new

    # -- queries --

    def query_history(self, owner: str) -> list[TokenTransaction]:
        """All committed transactions touching `owner`, chronological; an
        address no transaction touches is unknown."""
        out = [tx for block in self.chain for tx in block.txs
               if tx.sender == owner or tx.receiver == owner]
        if not out:
            raise UnknownAddress(owner)
        return out


class Overlay(dict):
    """Balances written by a pending pool, block or settlement batch over
    read-only base balances."""

    __slots__ = ("base",)

    def __init__(self, base: Mapping[str, int]):
        super().__init__()
        self.base = base

    def get(self, key, default=None):
        return self[key] if key in self else self.base.get(key, default)

    def balance(self, address: str) -> TokenAmount:
        return TokenAmount(self.get(address, 0))


def fold_transaction(balances: dict[str, int], tx: TokenTransaction) -> int:
    """Fold one transaction into a balance map; returns centi-tokens minted.

    Always writes and never raises: a transfer may leave its sender below
    zero, and each caller decides what that means.
    """
    _, _, sender, receiver, amount_text, kind_text, _, _ = tx
    centi, minted = _centi(amount_text), kind_text == _ALLOCATION_VALUE
    if not minted:
        balances[sender] = balances.get(sender, 0) - centi
    balances[receiver] = balances.get(receiver, 0) + centi
    return centi if minted else 0


def _fold_blocks(
    blocks: Iterable[Block], balances: dict[str, int], tx_index: dict[str, tuple[int, int]]
) -> tuple[dict[str, int], dict[str, tuple[int, int]], int]:
    """Fold and index every transaction of `blocks` into the two maps; returns
    them with the centi-tokens minted."""
    minted = 0
    for block in blocks:
        for pos, tx in enumerate(block.txs):
            minted += fold_transaction(balances, tx)
            tx_index[tx.tx_id] = (block.height, pos)
    return balances, tx_index, minted


def build_block(
    pool: Sequence[TokenTransaction], creator: str, head: Block
) -> Block:
    """Unsigned proposal extending `head`, deterministically ordered."""
    if not pool:
        raise EmptyPool("cannot build a block from an empty pool")
    txs = tuple(sorted(pool, key=lambda tx: (tx.timestamp, tx.tx_id)))
    height = head.height + 1
    return Block(
        height=height,
        prev_hash=head.block_hash,
        txs=txs,
        creator=creator,
        block_hash=compute_block_hash(height, head.block_hash, txs, creator),
        signatures=(),
    )


def create_genesis(validators: Sequence[str],
                   allocation_txs: Sequence[TokenTransaction]) -> Ledger:
    """Chain bootstrap: one genesis block holding the day's allocations,
    created by the first validator address and signed by every one."""
    txs = tuple(sorted(allocation_txs, key=lambda tx: (tx.timestamp, tx.tx_id)))
    block_hash = compute_block_hash(0, GENESIS_PREV_HASH, txs, validators[0])
    sigs = tuple(sorted((v, block_attestation(v, block_hash)) for v in validators))
    return Ledger((Block(0, GENESIS_PREV_HASH, txs, validators[0], block_hash, sigs),),
                  validators)


# --- verification -----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    height: int
    kind: str
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    violations: tuple[Violation, ...]
    blocks: int = 0  # how many blocks the walk read
    head_hash: str = ""  # the stored hash of the last of them

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_chain(ledger: Ledger) -> VerificationReport:
    """Walk genesis to head recomputing every hash, link, attestation and the
    full wallet fold.  Violations are report entries, never exceptions.

    The walk takes one `_ChainCheck.step` per block of `ledger.chain` and
    hashes each transaction's text as stored.  The fold is compared with the
    stored state only on a value `apply_block` derived: a root's state is
    its chain's fold by construction.
    """
    check = _ChainCheck(ledger.validators)
    for block in ledger.chain:
        check.step(block)
    return check.report(ledger.balances if ledger._derived else None)


class _ChainCheck:
    """What `verify_chain` carries from one block to the next: the wallet
    fold, the tx ids seen, the expected `prev_hash` and the violations."""

    __slots__ = ("validators", "quorum", "found", "balances", "minted", "seen_tx",
                 "expected_prev", "blocks", "head_hash")

    def __init__(self, validators: Sequence[str]):
        self.validators = frozenset(validators)
        self.quorum = quorum_size(len(validators)) if validators else 1
        self.found: list[Violation] = []
        self.balances: dict[str, int] = {}
        self.minted = 0
        self.seen_tx: set[str] = set()
        self.expected_prev = GENESIS_PREV_HASH
        self.blocks = 0
        self.head_hash = ""

    def step(self, block: Block) -> None:
        """Check the next block."""
        height, prev_hash, txs, creator, block_hash, signatures = block
        i = self.blocks
        self.blocks, self.head_hash = i + 1, block_hash
        found = self.found
        if height != i:
            found.append(Violation(i, "bad_height", f"stored height {height}"))

        # one pass over the txs renders the lines the block hash covers and
        # checks and folds each tx; a tx's violations follow the block's
        lines = []
        tx_found = []
        balances, seen_tx, minted = self.balances, self.seen_tx, 0
        for tx in txs:
            tx_id, _, sender, _, _, kind_text, _, signature = tx
            fields = tx.payload_fields()
            lines.append(_canonical_line(tx_id, fields, signature))
            res = _check_stateless(tx_id, fields, signature)
            if not res.ok:
                code = "tx_hash_mismatch" if res.code == HASH_MISMATCH else (
                    "bad_tx_signature" if res.code == BAD_SIGNATURE else "malformed_tx"
                )
                tx_found.append(Violation(i, code, f"{tx_id[:12]}: {res.detail}"))
            if tx_id in seen_tx:
                tx_found.append(Violation(i, "duplicate_tx", tx_id[:12]))
            seen_tx.add(tx_id)
            # a negative balance is reported and the fold goes on, so one bad
            # amount does not mask later violations
            minted += fold_transaction(balances, tx)
            if kind_text != _ALLOCATION_VALUE and balances[sender] < 0:
                tx_found.append(
                    Violation(i, "negative_balance",
                              f"{sender} dips to {TokenAmount(balances[sender])}")
                )
        self.minted += minted

        # link check cascades: once a block's recomputed hash diverges, every
        # later link is reported broken as well
        recomputed = _block_digest(i, prev_hash, creator, lines)
        if prev_hash != self.expected_prev:
            found.append(
                Violation(i, "broken_link", "prev_hash does not match previous block")
            )
            self.expected_prev = _block_digest(i, self.expected_prev, creator, lines)
        else:  # intact link: the next block's expected prev_hash is this recomputation
            self.expected_prev = recomputed
        if recomputed != block_hash:
            found.append(Violation(i, "block_hash_mismatch", "stored hash differs "
                                   "from recomputation"))

        valid_sigs = set()
        for addr, att in signatures:
            if addr not in self.validators:
                found.append(Violation(i, "unknown_signer", addr))
            elif att != block_attestation(addr, block_hash):
                found.append(Violation(i, "bad_attestation", addr))
            else:
                valid_sigs.add(addr)
        if len(valid_sigs) < self.quorum:
            found.append(
                Violation(i, "quorum_missing", f"{len(valid_sigs)} of {self.quorum} required")
            )
        found.extend(tx_found)

    def report(self, stored: Optional[Mapping[str, int]]) -> VerificationReport:
        """The chain-wide checks once every block has been stepped; `stored`
        is the wallet state to compare the fold with, if any."""
        if not self.blocks:
            return VerificationReport((Violation(0, "empty_chain", "no genesis block"),))
        found = self.found
        if sum(self.balances.values()) != self.minted:
            found.append(Violation(self.blocks - 1, "conservation_broken",
                                   "wallet total differs from minted total"))
        if stored is not None:
            refolded = {a: c for a, c in self.balances.items() if c != 0}
            if refolded != {a: c for a, c in stored.items() if c != 0}:
                found.append(Violation(self.blocks - 1, "state_mismatch",
                                       "stored wallet snapshot differs from re-fold"))
        return VerificationReport(tuple(found), self.blocks, self.head_hash)


# --- export / import --------------------------------------------------------

# the fields `_tx_to_obj` writes, all strings but the float timestamp
_TX_FIELDS = ("tx_id", "timestamp", "sender", "receiver", "amount", "kind",
              "description", "signature")
# the fields of a block's line, in the order `_block_fragments` writes them
_BLOCK_FIELDS = ("height", "prev_hash", "creator", "block_hash", "signatures", "txs")


def _tx_to_obj(tx: TokenTransaction) -> dict:
    return {
        "tx_id": tx.tx_id,
        "timestamp": tx.timestamp,
        "sender": tx.sender,
        "receiver": tx.receiver,
        "amount": tx.amount_text,
        "kind": tx.kind_text,
        "description": tx.description,
        "signature": tx.signature,
    }


def _tx_from_obj(obj: dict) -> TokenTransaction:
    # every field is read below, so with the right count there is no other key
    if len(obj) != len(_TX_FIELDS):
        raise ParseError(f"bad transaction record: fields must be {list(_TX_FIELDS)}")
    tx_id, timestamp, sender, receiver = (
        obj["tx_id"], obj["timestamp"], obj["sender"], obj["receiver"])
    amount, kind, description, signature = (
        obj["amount"], obj["kind"], obj["description"], obj["signature"])
    if not (type(timestamp) is float and type(tx_id) is str and type(sender) is str
            and type(receiver) is str and type(amount) is str and type(kind) is str
            and type(description) is str and type(signature) is str):
        raise ParseError("bad transaction record: timestamp must be a JSON float and "
                         "every other field a string")
    # the hashes cover the amount as `export_chain` renders it, so any other
    # spelling of the same value would verify under another text
    try:
        check_amount_text(amount)
        kind = _KIND_VALUES.get(kind) or TxKind(kind)  # TxKind raises, naming the kind
    except ValueError as exc:
        raise ParseError(f"bad transaction record: {exc}") from exc
    # a chain names the same few thousand addresses again and again: keep
    # one string per address
    return TokenTransaction(tx_id, timestamp, sys.intern(sender), sys.intern(receiver),
                            amount, kind, description, signature)


# what `json.dumps(obj, separators=(",", ":"))` builds on every call
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))


def _canonical_float(text: str) -> float:
    # the hashes cover a timestamp as `repr` renders it, so any other
    # spelling of the same value would verify under another text
    value = float(text)
    if repr(value) != text:
        raise ValueError(f"float {text} is not written as {value!r}")
    return value


# `json.loads`, but a float must be spelled as `export_chain` writes it
_EXPORT_JSON = json.JSONDecoder(parse_float=_canonical_float)


def _block_fragments(block: Block) -> Iterator[str]:
    """A block's compact JSON object in pieces: the fields before `txs`, then
    each transaction's JSON, then the closing brackets.  Joined, they are
    what one `json.dumps` of the whole object gives."""
    head = _COMPACT_JSON.encode({
        "height": block.height,
        "prev_hash": block.prev_hash,
        "creator": block.creator,
        "block_hash": block.block_hash,
        "signatures": [list(sig) for sig in block.signatures],
    })
    yield head[:-1] + ',"txs":['
    sep = ""
    for tx in block.txs:
        yield sep + _COMPACT_JSON.encode(_tx_to_obj(tx))
        sep = ","
    yield "]}"


def block_to_line(block: Block) -> str:
    return "".join(_block_fragments(block))


def export_chain(ledger: Ledger, out: TextIO) -> None:
    """Write newline-delimited JSON to `out`, one block per line, digests
    hex-lowercase, one transaction at a time."""
    for block in ledger.chain:
        out.writelines(_block_fragments(block))
        out.write("\n")


def import_chain(source: str | TextIO) -> Ledger:
    """Parse an export, given as its text or as an open text file, back into
    a Ledger root of `Block`s and `TokenTransaction`s.

    A file is read one line at a time.  Lines are the ones `str.splitlines`
    gives either way, so U+2028 and the other Unicode line breaks end a line
    in a file as they do in a string.  Parsing checks shape and field types
    only: hashes and balances are *not* enforced here, so a tampered file
    imports fine and `verify_chain` does the detecting.  The validator set is
    recovered from the genesis signatures.
    """
    lines = (source.splitlines() if isinstance(source, str)
             else (line for physical in source for line in physical.splitlines()))
    blocks: list[Block] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = _EXPORT_JSON.decode(line)
            # every field is read below, so with the right count there is no other key
            if len(obj) != len(_BLOCK_FIELDS):
                raise ParseError(f"bad block: fields must be {list(_BLOCK_FIELDS)}")
            if type(obj["height"]) is not int:
                raise ParseError("height must be an integer")
            signatures = []
            for sig in obj["signatures"]:
                if not (type(sig) is list and len(sig) == 2
                        and isinstance(sig[0], str) and isinstance(sig[1], str)):
                    raise ParseError("a signature entry is not a pair of strings")
                # one string per validator address
                signatures.append((sys.intern(sig[0]), sig[1]))
            block = Block(obj["height"], obj["prev_hash"],
                          tuple([_tx_from_obj(t) for t in obj["txs"]]),
                          obj["creator"], obj["block_hash"], tuple(signatures))
            if not (isinstance(block.prev_hash, str) and isinstance(block.creator, str)
                    and isinstance(block.block_hash, str)):
                raise ParseError("prev_hash, creator and block_hash must be strings")
        except (json.JSONDecodeError, RecursionError, KeyError, TypeError, IndexError,
                ValueError, ParseError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        blocks.append(block)
    if not blocks:
        raise ParseError("no blocks in export")
    return Ledger(blocks, (a for a, _ in blocks[0].signatures))


def export_wallets(ledger: Ledger) -> str:
    """CSV snapshot `address,balance`, two-decimal balances, sorted."""
    lines = ["address,balance"]
    for addr in sorted(ledger.balances):
        lines.append(f"{addr},{TokenAmount(ledger.balances[addr])}")
    return "\n".join(lines) + "\n"
