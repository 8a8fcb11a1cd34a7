"""Scenario generation and the sequential request-admission simulation.

A scenario is a random geometric network (uniform node placement in a
rectangle) plus a random request set: every node sources a Poisson number
of requests, each aimed at a uniformly chosen other node with a demand of
1 + Poisson(mean_demand - 1). A run admits requests one at a time — each
is routed by the topology MILP against the energy consumed so far, or lost
if no feasible route exists — and reports the routing table, lost count,
total energy, and the variance of the per-node energy shares.

Reproducibility: all randomness flows from one seeded generator
(``numpy.random.default_rng``) consumed in a fixed phase order —
positions, request counts, destinations, demands — with Poisson variates
drawn by inversion from single uniforms. Identical parameters therefore
give byte-identical scenarios, runs, and sweeps.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .formulation import EnergyLedger, Request, solve_single_request
from .network import NetworkModel

__all__ = [
    "ScenarioParams",
    "RequestOutcome",
    "RunReport",
    "SweepPoint",
    "SweepResult",
    "generate_scenario",
    "run",
    "variance_of",
    "sweep_threshold",
    "sweep_lambda",
]


@dataclass(frozen=True)
class ScenarioParams:
    """Everything that determines a scenario and its run.

    ``request_rate`` is the mean number of requests each node sources;
    ``mean_demand`` the mean per-request demand (demands are always >= 1);
    ``threshold`` the energy-fairness slack, or None to disable fairness;
    ``seed`` fixes every random draw.
    """

    node_count: int
    region: tuple[float, float]
    path_loss_exponent: float
    max_power: float
    bandwidth: float
    request_rate: float
    mean_demand: float
    hop_bound: int
    threshold: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.node_count, int) and self.node_count >= 2):
            raise ValueError(f"node_count must be an integer >= 2, got {self.node_count!r}")
        w, h = self.region
        if not (w > 0 and h > 0 and math.isfinite(w) and math.isfinite(h)):
            raise ValueError(f"region sides must be positive and finite, got {self.region!r}")
        for name in ("path_loss_exponent", "max_power", "bandwidth", "request_rate", "mean_demand"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        if isinstance(self.hop_bound, bool) or not (isinstance(self.hop_bound, int) and self.hop_bound >= 1):
            raise ValueError(f"hop_bound must be an integer >= 1, got {self.hop_bound!r}")
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite or None, got {self.threshold!r}")
        if isinstance(self.seed, bool) or not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


@dataclass(frozen=True, slots=True)
class RequestOutcome:
    """One routing-table row: the request and its path, or a loss.

    ``index`` is 1-based to match routing-table numbering. ``max_energy``
    is the admission's minimized per-link energy cap (None when lost);
    ``resource_limited`` marks losses caused by a solver budget stop.
    """

    index: int
    demand: float
    sender: int
    receiver: int
    path: list[int] | None
    max_energy: float | None = None
    resource_limited: bool = False

    @property
    def lost(self) -> bool:
        return self.path is None


@dataclass
class RunReport:
    """Outcome of one sequential run over a whole request set.

    The totals are derived from ``request_table`` and ``final_ledger``.
    """

    request_table: list[RequestOutcome]
    final_ledger: EnergyLedger

    @property
    def lost_count(self) -> int:
        return sum(row.lost for row in self.request_table)

    @property
    def variance(self) -> float:
        return variance_of(self.final_ledger)

    @property
    def total_energy(self) -> float:
        return self.final_ledger.total()


@dataclass(frozen=True)
class SweepPoint:
    """Replication-averaged metrics at one axis value (None = no threshold)."""

    axis_value: float | None
    variance_mean: float
    lost_mean: float
    total_energy_mean: float
    replications: int


@dataclass
class SweepResult:
    """One SweepPoint per swept value, ordered by axis value."""

    points: list[SweepPoint]


def _poisson(rng: np.random.Generator, mean: float) -> int:
    """One Poisson variate by inversion from a single uniform.

    Exact sequential search — suitable for the small means used here; the
    starting probability exp(-mean) must not underflow.
    """
    if mean <= 0:
        return 0
    p = math.exp(-mean)
    if p == 0.0:
        raise ValueError(f"mean {mean} too large for inversion sampling")
    u = rng.random()
    cdf = p
    k = 0
    while u > cdf:
        k += 1
        p *= mean / k
        cdf += p
    return k


def generate_scenario(
    params: ScenarioParams,
    network: NetworkModel | None = None,
    requests: list[Request] | None = None,
) -> tuple[NetworkModel, list[Request]]:
    """Draw the network and request set determined by ``params.seed``.

    Phases consume the generator in a fixed order: node positions (uniform
    over the region, redrawn on an exact coordinate collision), per-node
    request counts (Poisson(request_rate)), destinations (uniform over the
    other nodes, in source order), demands (1 + Poisson(mean_demand - 1)).
    Passing an explicit ``network`` or ``requests`` skips that phase's
    draws entirely; requests are ordered by (source node, draw order).
    """
    rng = np.random.default_rng(params.seed)
    n = params.node_count

    if network is None:
        width, height = params.region
        coords: list[tuple[float, float]] = []
        while len(coords) < n:
            pt = (rng.random() * width, rng.random() * height)
            if any(pt[0] == x and pt[1] == y for x, y in coords):
                continue
            coords.append(pt)
        network = NetworkModel(
            coords,
            max_power=params.max_power,
            bandwidth=params.bandwidth,
            path_loss_exponent=params.path_loss_exponent,
        )
    elif network.node_count != n:
        raise ValueError(f"network has {network.node_count} nodes, params say {n}")

    if requests is None:
        counts = [_poisson(rng, params.request_rate) for _ in range(n)]
        endpoints: list[tuple[int, int]] = []
        for src in range(n):
            others = [v for v in range(n) if v != src]
            for _ in range(counts[src]):
                endpoints.append((src, others[int(rng.random() * (n - 1))]))
        extra = max(0.0, params.mean_demand - 1.0)
        requests = [
            Request(src, dst, float(1 + _poisson(rng, extra)), params.hop_bound)
            for src, dst in endpoints
        ]
    return network, list(requests)


def variance_of(ledger: EnergyLedger) -> float:
    """Population variance of the per-node shares of total consumed energy.

    Shares make the statistic dimensionless and scale-invariant; a ledger
    with zero total (no traffic routed) has variance 0 by convention.
    """
    total = ledger.consumed.sum()
    if total <= 0:
        return 0.0
    shares = ledger.consumed / total
    return float(np.var(shares))


def run(
    params: ScenarioParams,
    network: NetworkModel | None = None,
    requests: list[Request] | None = None,
) -> RunReport:
    """Admit the scenario's requests one at a time and tabulate outcomes.

    Each request is routed against the energy consumed by its predecessors;
    a routed request commits its incremental energy to the ledger, a lost
    one commits nothing and the run continues. Pure function of its inputs.
    """
    net, reqs = generate_scenario(params, network=network, requests=requests)
    ledger = EnergyLedger.empty(net.node_count)
    table: list[RequestOutcome] = []
    for index, req in enumerate(reqs, start=1):
        sol = solve_single_request(net, req, ledger, params.threshold)
        path = sol.routes[0]
        if path is not None:
            ledger.charge(sol.node_energy)
        table.append(
            RequestOutcome(
                index, req.demand, req.sender, req.receiver,
                None if path is None else list(path),
                None if path is None else sol.max_energy,
                sol.resource_limited,
            )
        )
    return RunReport(request_table=table, final_ledger=ledger)


def _axis_key(value: float | None) -> float:
    return math.inf if value is None else float(value)


def _sweep(
    params: ScenarioParams,
    field_name: str,
    values,
    replications: int,
    network: NetworkModel | None,
    requests: list[Request] | None,
) -> SweepResult:
    if replications < 1:
        raise ValueError("replications must be >= 1")
    points = []
    for value in sorted(values, key=_axis_key):
        variances, losts, energies = [], [], []
        for rep in range(replications):
            p = dataclasses.replace(params, **{field_name: value, "seed": params.seed + rep})
            report = run(p, network=network, requests=requests)
            variances.append(report.variance)
            losts.append(report.lost_count)
            energies.append(report.total_energy)
        points.append(
            SweepPoint(
                axis_value=value,
                variance_mean=float(np.mean(variances)),
                lost_mean=float(np.mean(losts)),
                total_energy_mean=float(np.mean(energies)),
                replications=replications,
            )
        )
    return SweepResult(points)


def sweep_threshold(
    params: ScenarioParams,
    thresholds,
    replications: int = 20,
    network: NetworkModel | None = None,
    requests: list[Request] | None = None,
) -> SweepResult:
    """Mean metrics per threshold value (None = unconstrained baseline).

    Each point replays seeds ``seed .. seed + replications - 1`` so that
    only the threshold varies between points; points are ordered by value
    with None (no constraint) last.
    """
    return _sweep(params, "threshold", list(thresholds), replications, network, requests)


def sweep_lambda(
    params: ScenarioParams,
    demand_means,
    replications: int = 20,
    network: NetworkModel | None = None,
    requests: list[Request] | None = None,
) -> SweepResult:
    """Mean metrics per mean-demand value, ordered ascending.

    Same seed discipline as :func:`sweep_threshold`.
    """
    return _sweep(params, "mean_demand", list(demand_means), replications, network, requests)
