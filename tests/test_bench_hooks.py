"""The benchmark's tracer finds the package's entry points by name and wraps
them where their callers look them up.  A rename, a removal or a call that
moved past the wrapped name fails here rather than in the benchmark."""

import contextlib
import io
from pathlib import Path

from carbonledger import cli, consensus, population, simulator

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_and_commit_timer_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    original = consensus.ConsensusEngine.run_until_commit
    with tracer.CommitTimer().install():
        assert consensus.ConsensusEngine.run_until_commit is not original
    with tracer.Tracer().install():
        assert consensus.ConsensusEngine.run_until_commit is not original
    assert consensus.ConsensusEngine.run_until_commit is original


def test_traced_day_reaches_every_span(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    trace = tracer.Tracer()
    with trace.install(), contextlib.redirect_stdout(io.StringIO()):
        persons, trips = population.generate_synthetic(7, 25)
        population.write_population(persons, trips, tmp_path / "p.csv", tmp_path / "t.csv")
        cfg = simulator.SimulationConfig(seed=7, persons_file=str(tmp_path / "p.csv"),
                                         trips_file=str(tmp_path / "t.csv"))
        simulator.run(cfg, out_dir=tmp_path / "run")
        assert cli.main(["verify", str(tmp_path / "run" / "ledger.ndjson")]) == 0
        assert cli.main(["report", str(tmp_path / "run")]) == 0
    spans = {span[0] for span in trace.spans}
    assert spans == {
        "consensus.run_until_commit", "consensus.run_round", "consensus.simulate_network",
        "consensus.build_block", "ledger.validate_pool", "ledger.apply_block",
        "ledger.verify_chain", "ledger.import_chain", "ledger.export_chain",
        "simulator.write_artifacts", "simulator.run", "emissions.trip_cost",
        "market.settle_trip", "population.generate_synthetic",
        "population.load_population", "analytics.all_reports", "analytics.leftovers_by",
        "analytics.export_reports", "cli.report", "cli.verify",
    }
    for counted in ("ledger.digest", "tokens.format", "rounds", "messages",
                    "committed_blocks", "settlements"):
        assert trace.counts[counted] > 0, counted
