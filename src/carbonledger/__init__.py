"""Desk-scale carbon-token emission trading.

Tamper-evident token ledger, BFT block selection over a simulated network,
per-trip CO2e-to-token accounting, a cap-and-trade market, a full-day trip
replay simulator and token-usage report generation.
"""

from .tokens import TokenAmount
from .ledger import (
    Block,
    Ledger,
    TokenTransaction,
    TxKind,
    build_block,
    create_genesis,
    export_chain,
    import_chain,
    validate_stateless,
    verify_chain,
)
from .consensus import (
    Behavior,
    ConsensusEngine,
    Decision,
    NetworkModel,
    run_round,
    simulate_network,
    tally_votes,
)
from .emissions import (
    BusChargingPolicy,
    EmissionFactorTable,
    Mode,
    PricePolicy,
    TripRecord,
    average_speed,
    per_user_emissions,
    tokens_for_emissions,
    trip_cost,
    trip_emissions,
)
from .market import CapPolicy, Market, allocate, compute_cap
from .population import SurveyPerson, generate_synthetic, load_population
from .simulator import SimulationConfig, SimulationResult, collect_metrics, run
from .analytics import all_reports, export_reports, leftovers_by, trip_breakdown

__version__ = "0.1.0"
