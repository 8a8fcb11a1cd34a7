"""Energy-aware topology control and QoS routing for wireless sensor networks.

The package stacks four layers: a geometric network model
(:mod:`qostopo.network`), an exact mixed binary/continuous linear solver
(:mod:`qostopo.milp`), the load-balancing LP and topology-control MILP
built on it (:mod:`qostopo.formulation`), and a seeded sequential
request simulation with parameter sweeps (:mod:`qostopo.simulate`).
Scenario files and the command line live in :mod:`qostopo.scenario` and
:mod:`qostopo.cli`.
"""

from .network import NetworkModel, symmetric_closure
from .milp import (
    FEASIBILITY_TOL,
    INTEGRALITY_TOL,
    MilpModel,
    ModelError,
    Solution,
    SolverError,
    SolveLimits,
    Status,
    check_solution,
    lp_text,
    solve,
)
from .formulation import (
    EnergyLedger,
    LoadLpResult,
    Request,
    SolverLimitError,
    TopologySolution,
    ValidationError,
    build_load_lp,
    build_topology_milp,
    decode_and_validate,
    solve_load_lp,
    solve_single_request,
)
from .simulate import (
    RequestOutcome,
    RunReport,
    ScenarioParams,
    SweepPoint,
    SweepResult,
    generate_scenario,
    run,
    sweep_lambda,
    sweep_threshold,
    variance_of,
)
from .scenario import Scenario, ScenarioParseError, ScenarioValueError, load_scenario

__version__ = "0.1.0"

__all__ = [
    "NetworkModel",
    "symmetric_closure",
    "FEASIBILITY_TOL",
    "INTEGRALITY_TOL",
    "MilpModel",
    "ModelError",
    "Solution",
    "SolverError",
    "SolveLimits",
    "Status",
    "check_solution",
    "lp_text",
    "solve",
    "EnergyLedger",
    "LoadLpResult",
    "Request",
    "SolverLimitError",
    "TopologySolution",
    "ValidationError",
    "build_load_lp",
    "build_topology_milp",
    "decode_and_validate",
    "solve_load_lp",
    "solve_single_request",
    "RequestOutcome",
    "RunReport",
    "ScenarioParams",
    "SweepPoint",
    "SweepResult",
    "generate_scenario",
    "run",
    "sweep_lambda",
    "sweep_threshold",
    "variance_of",
    "Scenario",
    "ScenarioParseError",
    "ScenarioValueError",
    "load_scenario",
    "__version__",
]
