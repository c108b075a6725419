"""In-memory span tracer that wraps carbonledger's public entry points.

Spans are recorded from the benchmark's side of each layer boundary: a
wrapper is installed on the name where the caller looks it up (a module
global or a class attribute) and the original is put back on exit.  Each
span holds (name, start, end, parent index, settlement id); the parent's
child time is accumulated as spans close, so self time is one subtraction.
Hot, tiny functions (``digest``, ``TokenAmount.__str__``) are counted
rather than spanned; their cost stays in their caller's self time.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter

from carbonledger import analytics, cli, consensus, emissions, ledger, market
from carbonledger import population, simulator, tokens

_NAME, _START, _END, _PARENT, _SETTLEMENT, _CHILD = range(6)


@contextmanager
def patched(replacements):
    """Install ``(owner, attribute, wrapper_factory)`` triples, restore on exit."""
    saved = []
    try:
        for owner, attr, make in replacements:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class CommitTimer:
    """The one instrument of an untraced run: a perf_counter pair around
    each ``ConsensusEngine.run_until_commit`` call, failed pools included."""

    def __init__(self):
        self.samples_s: list[float] = []
        self.failed_pools = 0

    def wrap(self, original):
        @wraps(original)
        def timed(engine, pool, *args, **kwargs):
            t0 = perf_counter()
            out = original(engine, pool, *args, **kwargs)
            self.samples_s.append(perf_counter() - t0)
            if out[0] is None:
                self.failed_pools += 1
            return out
        return timed

    def install(self):
        return patched([(consensus.ConsensusEngine, "run_until_commit", self.wrap)])


class Tracer:
    """Spans plus counters at the layer boundaries of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.settlement = -1
        self._settlements = 0
        self.counts: Counter = Counter()

    # -- wrappers --

    def span(self, name, after=None):
        def make(original):
            @wraps(original)
            def wrapper(*args, **kwargs):
                parent = self._stack[-1] if self._stack else -1
                rec = [name, 0.0, 0.0, parent, self.settlement, 0.0]
                self._stack.append(len(self.spans))
                self.spans.append(rec)
                t0 = perf_counter()
                try:
                    out = original(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    self._stack.pop()
                    rec[_START], rec[_END] = t0, t1
                    if parent >= 0:
                        self.spans[parent][_CHILD] += t1 - t0
                if after is not None:
                    after(out)
                return out
            return wrapper
        return make

    def count(self, name):
        def make(original):
            @wraps(original)
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def settlement_span(self, original):
        inner = self.span("consensus.run_until_commit", after=self._after_commit)(original)

        @wraps(original)
        def wrapper(*args, **kwargs):
            self._settlements += 1
            self.settlement = self._settlements
            try:
                return inner(*args, **kwargs)
            finally:
                self.settlement = -1
        return wrapper

    # -- count hooks --

    def _after_commit(self, out):
        self.counts["committed_blocks" if out[0] is not None else "failed_pools"] += 1

    def _after_round(self, out):
        self.counts["rounds"] += 1
        self.counts["messages"] += out.n_messages
        self.counts["dropped"] += out.n_dropped

    def _after_settle(self, out):
        if out:
            self.counts["settlements"] += 1
            self.counts["purchases"] += sum(
                1 for tx in out if tx.kind is ledger.TxKind.PURCHASE)

    def install(self):
        s = self.span
        return patched([
            (consensus.ConsensusEngine, "run_until_commit", self.settlement_span),
            (consensus, "run_round", s("consensus.run_round", after=self._after_round)),
            (consensus, "simulate_network", s("consensus.simulate_network")),
            (consensus, "build_block", s("consensus.build_block")),
            (ledger.Ledger, "validate_pool", s("ledger.validate_pool")),
            (ledger.Ledger, "apply_block", s("ledger.apply_block")),
            (ledger, "digest", self.count("ledger.digest")),
            (consensus, "digest", self.count("ledger.digest")),
            (tokens.TokenAmount, "__str__", self.count("tokens.format")),
            (ledger, "verify_chain", s("ledger.verify_chain")),
            (ledger, "import_chain", s("ledger.import_chain")),
            (simulator, "export_chain", s("ledger.export_chain")),
            (simulator, "write_artifacts", s("simulator.write_artifacts")),
            (simulator, "run", s("simulator.run")),
            (simulator, "trip_cost", s("emissions.trip_cost")),
            (emissions, "trip_cost", s("emissions.trip_cost")),
            (market.Market, "settle_trip", s("market.settle_trip", after=self._after_settle)),
            (population, "generate_synthetic", s("population.generate_synthetic")),
            (population, "load_population", s("population.load_population")),
            (simulator, "load_population", s("population.load_population")),
            (analytics, "all_reports", s("analytics.all_reports")),
            (analytics, "leftovers_by", s("analytics.leftovers_by")),
            (analytics, "export_reports", s("analytics.export_reports")),
            (cli, "cmd_report", s("cli.report")),
            (cli, "cmd_verify", s("cli.verify")),
        ])

    # -- derived figures --

    def durations_s(self, name: str) -> list[float]:
        return [r[_END] - r[_START] for r in self.spans if r[_NAME] == name]

    def total_ms(self, name: str) -> float:
        return 1e3 * sum(self.durations_s(name))

    def self_times_ms(self) -> dict[str, float]:
        """Span duration minus child-span time, summed per span name."""
        out: dict[str, float] = defaultdict(float)
        for r in self.spans:
            out[r[_NAME]] += 1e3 * (r[_END] - r[_START] - r[_CHILD])
        return dict(out)

    def write(self, path: Path) -> None:
        """Spans as CSV ``name,start_s,end_s,parent,settlement``."""
        lines = ["name,start_s,end_s,parent,settlement"]
        lines += [f"{r[_NAME]},{r[_START]:.9f},{r[_END]:.9f},{r[_PARENT]},{r[_SETTLEMENT]}"
                  for r in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")


def tenth_medians_us(durations_s: list[float]) -> tuple[float, float]:
    """Median per-call time over the first and the last tenth of calls."""
    k = max(1, len(durations_s) // 10)
    return (1e6 * statistics.median(durations_s[:k]),
            1e6 * statistics.median(durations_s[-k:]))
