"""Optimization models for load balancing and energy-aware topology control.

Two models over a :class:`~qostopo.network.NetworkModel`:

* a load-balancing LP that routes a set of demands fractionally over all
  node pairs and minimizes the worst per-node bandwidth utilization (a
  node's channel is occupied by the flow it forwards in either direction
  plus the demand it originates or terminates);
* a topology-control MILP over route arcs that admits one request: it
  picks one unsplittable route and minimizes the maximum per-link
  transmission energy subject to the hop bound, per-node bandwidth, and —
  optionally — an energy-fairness cap that keeps every node's cumulative
  consumption within a threshold of the network average (counting the
  energy the candidate route would add). Miller-Tucker-Zemlin order
  variables forbid cycles, so the route is one simple path and the energy
  the fairness row counts is exactly the energy the route commits. The
  cheapest one- or two-hop route that the route judge (below) passes
  bounds the cap, and arcs dearer than that bound are fixed at 0, which
  shrinks the model without removing any optimal route. The enabled links
  are the route's minimal closure under link symmetry and the broadcast
  property (reaching a node implies reaching every closer node); it never
  costs more than the costliest arc, so it cannot move the cap.

Solver output is decoded into plain topologies and node paths and then
re-validated from scratch; one route judge, ``_route_problems``, holds the
QoS rows and their tolerance for both the cap bound and this re-check. An
arc set that is not exactly one simple path, or any other failed re-check,
is reported as :class:`ValidationError`, signalling a bug rather than an
infeasible instance. Requests that admit no feasible route are "lost":
reported as such with zero energy committed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping

import numpy as np

from .milp import (
    FEASIBILITY_TOL,
    INTEGRALITY_TOL,
    MilpModel,
    ModelError,
    Solution,
    SolveLimits,
    Status,
    check_solution,
    solve,
)
from .network import NetworkModel

__all__ = [
    "Request",
    "EnergyLedger",
    "LoadLpResult",
    "TopologySolution",
    "ValidationError",
    "SolverLimitError",
    "build_load_lp",
    "solve_load_lp",
    "build_topology_milp",
    "solve_single_request",
    "decode_and_validate",
]


class ValidationError(Exception):
    """A decoded solution failed the independent constraint re-check.

    Raised for internal inconsistencies (solver output violating the model
    it was given), never for legitimately infeasible instances.
    """


class SolverLimitError(Exception):
    """The solver hit its node/iteration budget before reaching an answer."""


@dataclass(frozen=True)
class Request:
    """One unsplittable traffic demand from ``sender`` to ``receiver``.

    ``demand`` is the bandwidth the request occupies, ``hop_bound`` the
    maximum number of links its route may use. Any integer type (numpy's
    included) is accepted for the node ids and the hop bound, and any real
    type for the demand; they are stored as built-in ``int`` and ``float``.
    """

    sender: int
    receiver: int
    demand: float
    hop_bound: int

    def __post_init__(self):
        for label, node in (("sender", self.sender), ("receiver", self.receiver)):
            if not (isinstance(node, numbers.Integral) and node >= 0):
                raise ValueError(f"{label} must be a nonnegative integer, got {node!r}")
        if self.sender == self.receiver:
            raise ValueError("sender and receiver must differ")
        if not (isinstance(self.demand, numbers.Real) and math.isfinite(self.demand) and self.demand > 0):
            raise ValueError(f"demand must be positive and finite, got {self.demand!r}")
        if not (isinstance(self.hop_bound, numbers.Integral) and self.hop_bound >= 1):
            raise ValueError(f"hop_bound must be an integer >= 1, got {self.hop_bound!r}")
        for name, kind in (("sender", int), ("receiver", int), ("demand", float), ("hop_bound", int)):
            object.__setattr__(self, name, kind(getattr(self, name)))


class EnergyLedger:
    """Cumulative transmission energy spent by each node."""

    def __init__(self, consumed):
        arr = np.array(consumed, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("consumed must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("consumed entries must be finite and >= 0")
        self.consumed = arr

    @classmethod
    def empty(cls, node_count: int) -> "EnergyLedger":
        return cls(np.zeros(int(node_count)))

    @property
    def node_count(self) -> int:
        return self.consumed.size

    def average(self) -> float:
        return float(self.consumed.mean())

    def total(self) -> float:
        return float(self.consumed.sum())

    def charge(self, amounts) -> None:
        """Add per-node energy increments (all >= 0) to the ledger."""
        inc = np.asarray(amounts, dtype=float)
        if inc.shape != self.consumed.shape:
            raise ValueError(f"expected {self.consumed.shape[0]} increments, got shape {inc.shape}")
        if not np.all(np.isfinite(inc)) or np.any(inc < 0):
            raise ValueError("increments must be finite and >= 0")
        self.consumed = self.consumed + inc

    def copy(self) -> "EnergyLedger":
        return EnergyLedger(self.consumed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnergyLedger):
            return NotImplemented
        return np.array_equal(self.consumed, other.consumed)

    def __repr__(self) -> str:
        return f"EnergyLedger({self.consumed.tolist()!r})"


class _FlowMatrices(Mapping):
    """Per-commodity n-by-n flow matrices, stored as their nonzero cells.

    Entry e is the flow ``values[e]`` in flat row-major cell ``cells[e]`` of
    the matrix of the ``commodity[e]``-th key; entries come grouped by
    commodity in key order. Keys iterate in the order given; each lookup
    builds the dense matrix anew and marks it read-only.
    """

    def __init__(self, n: int, keys, commodity: np.ndarray, cells: np.ndarray, values: np.ndarray) -> None:
        self._n = n
        self._slot = {key: c for c, key in enumerate(keys)}
        self._offsets = np.searchsorted(commodity, np.arange(len(self._slot) + 1))
        self._cells = cells
        self._values = values

    @classmethod
    def from_dense(cls, flows: Mapping[tuple[int, int], np.ndarray]) -> "_FlowMatrices":
        """Keep the nonzero cells of equally sized square matrices, keys sorted."""
        keys = sorted(flows)
        mats = [np.asarray(flows[key], dtype=float) for key in keys]
        n = mats[0].shape[0] if mats else 0
        if any(mat.shape != (n, n) for mat in mats):
            raise ValueError("flow matrices must all be n-by-n for one n")
        stack = np.array(mats).reshape(len(mats), n * n)
        commodity, cells = np.nonzero(stack)
        return cls(n, keys, commodity, cells, stack[commodity, cells])

    def __getitem__(self, key: tuple[int, int]) -> np.ndarray:
        c = self._slot[key]
        lo, hi = self._offsets[c], self._offsets[c + 1]
        mat = np.zeros((self._n, self._n))
        mat.put(self._cells[lo:hi], self._values[lo:hi])
        mat.flags.writeable = False
        return mat

    def __iter__(self):
        return iter(self._slot)

    def __len__(self) -> int:
        return len(self._slot)


@dataclass(eq=False)
class LoadLpResult:
    """Solved load LP: worst utilization plus the optimal flow assignment.

    ``flows`` is a read-only mapping from each commodity (sender, receiver),
    in sorted order, to its n-by-n matrix of per-arc flow. Only the nonzero
    flows are stored; each lookup returns a fresh read-only dense matrix.
    A plain dict of matrices passed in is stored the same way.
    ``max_utilization`` > 1 means some node needs more channel capacity
    than it has.
    """

    max_utilization: float
    flows: Mapping[tuple[int, int], np.ndarray]

    def __post_init__(self) -> None:
        if not isinstance(self.flows, _FlowMatrices):
            self.flows = _FlowMatrices.from_dense(self.flows)

    @property
    def overloaded(self) -> bool:
        return self.max_utilization > 1.0

    def flow(self, sender: int, receiver: int, i: int, j: int) -> float:
        return float(self.flows[(sender, receiver)][i, j])


@dataclass(eq=False)
class TopologySolution:
    """Decoded topology MILP output.

    ``links`` holds the enabled directed links — the minimal symmetric
    broadcast closure of the route's arcs — ``routes`` a one-element list
    holding the request's node path (``None`` when the request is lost),
    ``node_energy`` the incremental transmission energy each node commits
    for that route, and ``max_energy`` the minimized per-link
    transmission-energy cap.
    ``resource_limited`` distinguishes a loss forced by a solver budget from
    a genuinely infeasible request.
    """

    max_energy: float
    links: set[tuple[int, int]]
    routes: list[list[int] | None]
    node_energy: np.ndarray
    resource_limited: bool = False

    @property
    def lost(self) -> bool:
        return self.routes[0] is None


# ---------------------------------------------------------------------------
# shared layout helpers
#
# Both models index flow/indicator variables by ordered node pairs in
# lexicographic order; builders and the decoder below rely on this single
# definition staying put.


def _ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def _check_requests(net: NetworkModel, requests: Iterable[Request]) -> list[Request]:
    reqs = list(requests)
    n = net.node_count
    for r in reqs:
        if not (0 <= r.sender < n and 0 <= r.receiver < n):
            raise ModelError(f"request endpoints ({r.sender}, {r.receiver}) outside 0..{n - 1}")
    return reqs


def _single_request(net: NetworkModel, requests: Iterable[Request]) -> Request:
    reqs = _check_requests(net, requests)
    if len(reqs) != 1:
        raise ModelError(f"the topology model routes exactly one request, got {len(reqs)}")
    return reqs[0]


# ---------------------------------------------------------------------------
# load-balancing LP


def _merge_commodities(requests: list[Request]) -> list[tuple[int, int, float]]:
    # Fractional flow is additive, so same-endpoint requests pool into one
    # commodity with the summed demand.
    demand: dict[tuple[int, int], float] = {}
    for r in requests:
        key = (r.sender, r.receiver)
        demand[key] = demand.get(key, 0.0) + float(r.demand)
    return [(s, d, demand[(s, d)]) for (s, d) in sorted(demand)]


def build_load_lp(net: NetworkModel, requests: list[Request]) -> MilpModel:
    """Build the LP minimizing the worst per-node bandwidth utilization.

    Variables: one utilization bound, then per commodity (duplicate
    endpoint pairs merged) a flow variable per ordered node pair, with
    arcs into the sender and out of the receiver fixed to zero. Rows: flow
    conservation (net outflow = +demand at the sender, -demand at the
    receiver, 0 elsewhere) per commodity and node, then one load row per
    node: forwarded flow in both directions plus originated/terminated
    demand, at most bandwidth times the utilization bound. A conservation
    row lists node v's arcs to and from each other node j in turn; a load
    row does so commodity by commodity and ends with the bound. The rows
    are built as index arrays and added in one :meth:`MilpModel.add_block`.
    """
    reqs = _check_requests(net, requests)
    n = net.node_count
    m = n * (n - 1)
    commodities = _merge_commodities(reqs)
    senders = np.array([s for s, _, _ in commodities], dtype=np.int64)
    receivers = np.array([d for _, d, _ in commodities], dtype=np.int64)
    rates = np.array([lam for _, _, lam in commodities], dtype=float)
    count = len(commodities)

    model = MilpModel()
    util = model.add_continuous(0.0, math.inf)
    model.set_objective({util: 1.0})

    # Flow (c, i, j) is variable 1 + c*m + k, where k = i*(n-1) + j - (j > i)
    # is the position of (i, j) in _ordered_pairs. Node v's t-th other node
    # j gives the arcs (v, j) at k = v*(n-1) + t and (j, v).
    nodes = np.arange(n)[:, None]
    others = np.arange(n - 1) + (np.arange(n - 1) >= nodes)
    arc_out = nodes * (n - 1) + np.arange(n - 1)
    arc_in = others * (n - 1) + nodes - (nodes > others)
    # per node, its arcs as (out, in) pairs over t: shape (n, 2(n-1))
    arcs = np.stack([arc_out, arc_in], axis=-1).reshape(n, 2 * (n - 1))
    flow = 1 + np.arange(count)[:, None, None] * m + arcs  # (commodity, node, term)

    # arc_out enumerates k = 0..m-1, so arc k runs from node k // (n-1) to others.ravel()[k]
    tails, heads = np.repeat(np.arange(n), n - 1), others.ravel()
    blocked = (heads == senders[:, None]) | (tails == receivers[:, None])
    upper = np.where(blocked, 0.0, math.inf).ravel()

    conservation_rhs = np.zeros((count, n))
    conservation_rhs[np.arange(count), senders] = rates
    conservation_rhs[np.arange(count), receivers] = -rates
    conservation_coeffs = np.tile([1.0, -1.0], (count, n, n - 1))

    # load row v: its arcs commodity by commodity, then the bound
    load_cols = np.concatenate([flow.transpose(1, 0, 2).reshape(n, -1), np.full((n, 1), util)], axis=1)
    load_coeffs = np.ones(load_cols.shape)
    load_coeffs[:, -1] = -net.bandwidth
    # sequential sums in commodity order, each commodity adding at its
    # sender and then at its receiver (bincount gives integers when empty)
    endpoint_demand = np.bincount(
        np.column_stack([senders, receivers]).ravel(), weights=np.repeat(rates, 2), minlength=n
    ).astype(float)

    model.add_block(
        lower=np.zeros(count * m),
        upper=upper,
        rows=np.concatenate([
            np.repeat(np.arange(count * n), 2 * (n - 1)),
            np.repeat(np.arange(count * n, count * n + n), load_cols.shape[1]),
        ]),
        cols=np.concatenate([flow.ravel(), load_cols.ravel()]),
        coeffs=np.concatenate([conservation_coeffs.ravel(), load_coeffs.ravel()]),
        senses=["="] * (count * n) + ["<="] * n,
        rhs=np.concatenate([conservation_rhs.ravel(), -endpoint_demand]),
    )
    return model


def solve_load_lp(
    net: NetworkModel,
    requests: list[Request],
    limits: SolveLimits | None = None,
) -> LoadLpResult:
    """Solve the load LP and decode per-commodity flow matrices.

    The solution is re-checked against every row before being returned.
    Only the nonzero flows are kept (an optimal vertex has at most one per
    basic variable). Raises :class:`SolverLimitError` if the iteration
    budget runs out and :class:`ValidationError` on any internal
    inconsistency (the LP is feasible and bounded for every valid input).
    """
    reqs = _check_requests(net, requests)
    model = build_load_lp(net, reqs)
    sol = solve(model, limits)
    if sol.status is Status.RESOURCE_LIMIT:
        raise SolverLimitError("load LP hit the iteration limit")
    if sol.status is not Status.OPTIMAL:
        raise ValidationError(f"load LP unexpectedly {sol.status.value}")
    problems = check_solution(model, sol.values)
    if problems:
        raise ValidationError("load LP solution failed re-check: " + "; ".join(problems))

    n = net.node_count
    m = n * (n - 1)
    keys = [(s, d) for s, d, _ in _merge_commodities(reqs)]
    # flow variable 1 + c*m + k is commodity c's k-th ordered pair, and a
    # row-major walk of the off-diagonal cells visits the pairs in that order
    nonzero = np.flatnonzero(sol.values[1:])
    commodity, k = divmod(nonzero, m)
    cells = np.flatnonzero(~np.eye(n, dtype=bool))[k]
    flows = _FlowMatrices(n, keys, commodity, cells, sol.values[1 + nonzero])
    return LoadLpResult(max_utilization=float(sol.values[0]), flows=flows)


# ---------------------------------------------------------------------------
# topology-control MILP


def build_topology_milp(
    net: NetworkModel,
    requests: list[Request],
    ledger: EnergyLedger,
    threshold: float | None,
) -> MilpModel:
    """Build the MILP minimizing the maximum per-link transmission energy.

    ``requests`` must hold exactly one request (else :class:`ModelError`);
    the model's only integer points are its simple sender-to-receiver paths
    within the hop bound. Variables: the energy cap, continuous in
    [0, bound]; one route-arc indicator per ordered node pair; then one
    Miller-Tucker-Zemlin order variable per node, in [0, H] for hop bound H
    and fixed at 0 for the sender. The layout is ``1 + n(n-1) + n``. An arc
    is open (binary) unless it enters the sender, leaves the receiver or
    costs more than the bound; closed arcs are continuous and fixed at 0.
    The bound comes from a feasible route (:func:`_cap_bound`), so every
    optimal route survives.

    Rows, in order: a hop-count row; then per node a cap row (its open
    outgoing arcs' energies summed stay below the cap) and out-degree <= 1,
    both skipped for a node with no open outgoing arc (such as the
    receiver), in-degree <= 1, skipped for a node with no open incoming arc
    (such as the sender), and unit route conservation, skipped for a node
    with no open arc unless it is the sender or the receiver, whose empty
    row makes the model infeasible; then per open arc (i, j) the order row
    ``u_j - u_i - (H+1) x_ij >= -H``, so that every arc used climbs at least
    one step and no cycle survives; then a bandwidth row per node with an
    open arc and, when ``threshold`` is not None, a per-node fairness row
    keeping cumulative consumption (ledger plus the energy the route adds)
    within ``threshold`` of the network average. Hop and fairness rows range
    over open arcs only and are left out when no arc is open. The order rows
    alone imply the hop bound and the degree rows; the hop and degree rows
    stay as cuts that tighten the LP relaxation. Links need no variables:
    their closure never costs more than the costliest arc
    (:meth:`NetworkModel.broadcast_closure`).
    """
    req = _single_request(net, requests)
    n = net.node_count
    if ledger.node_count != n:
        raise ModelError(f"ledger covers {ledger.node_count} nodes, network has {n}")
    if threshold is not None and not math.isfinite(threshold):
        raise ModelError(f"threshold must be finite or None, got {threshold!r}")

    pairs = _ordered_pairs(n)
    energy = net.energy_matrix
    bound = _cap_bound(net, req, ledger, threshold)
    hops = float(req.hop_bound)

    model = MilpModel()
    cap = model.add_continuous(0.0, bound)
    model.set_objective({cap: 1.0})
    # No simple path enters its sender or leaves its receiver, and no optimal
    # route uses an arc dearer than a route known to be feasible.
    open_arcs = [(i, j) for i, j in pairs if j != req.sender and i != req.receiver and energy[i, j] <= bound]
    live = set(open_arcs)
    x = {pair: model.add_binary() if pair in live else model.add_continuous(0.0, 0.0) for pair in pairs}
    u = [model.add_continuous(0.0, 0.0 if v == req.sender else hops) for v in range(n)]

    out = [[] for _ in range(n)]
    into = [[] for _ in range(n)]
    for i, j in open_arcs:
        out[i].append((i, j))
        into[j].append((i, j))
    if open_arcs:
        model.add_constraint({x[pair]: 1.0 for pair in open_arcs}, "<=", hops)
    for v in range(n):
        if out[v]:
            model.add_constraint({**{x[pair]: energy[pair] for pair in out[v]}, cap: -1.0}, "<=", 0.0)
            model.add_constraint({x[pair]: 1.0 for pair in out[v]}, "<=", 1.0)
        if into[v]:
            model.add_constraint({x[pair]: 1.0 for pair in into[v]}, "<=", 1.0)
        rhs = 1.0 if v == req.sender else -1.0 if v == req.receiver else 0.0
        if out[v] or into[v] or rhs:
            flow = {**{x[pair]: 1.0 for pair in out[v]}, **{x[pair]: -1.0 for pair in into[v]}}
            model.add_constraint(flow, "=", rhs)
    for i, j in open_arcs:
        model.add_constraint({u[j]: 1.0, u[i]: -1.0, x[(i, j)]: -(hops + 1.0)}, ">=", -hops)

    for v in range(n):
        if out[v] or into[v]:
            model.add_constraint({x[pair]: req.demand for pair in sorted(out[v] + into[v])}, "<=", net.bandwidth)

    if threshold is not None and open_arcs:
        mean_consumed = ledger.average()
        for v in range(n):
            coeffs = {}
            for i, j in open_arcs:
                share = (1.0 if i == v else 0.0) - 1.0 / n
                coeffs[x[(i, j)]] = req.demand * energy[i, j] * share
            model.add_constraint(coeffs, "<=", threshold - float(ledger.consumed[v]) + mean_consumed)

    return model


def _route_problems(
    net: NetworkModel,
    req: Request,
    ledger: EnergyLedger,
    threshold: float | None,
    arcs: Collection[tuple[int, int]],
    sign: float,
) -> tuple[float, np.ndarray, list[str]]:
    """Cap (costliest arc, 0 for none) of the route ``arcs``, the energy each
    node adds, and one message per QoS row of ``req`` it breaks: ``max_power``,
    the hop bound, per-node bandwidth (the demand at both ends of every arc)
    and, with a threshold, per-node fairness on the ledger plus increments.
    Each row's tolerance is ``FEASIBILITY_TOL`` times that row's scale: slack
    for ``sign=+1`` (the decoder), margin for ``sign=-1`` (the cap bound).
    """
    energy = net.energy_matrix
    cap = max((float(energy[i, j]) for i, j in arcs), default=0.0)
    increments = np.zeros(net.node_count)
    occupancy = np.zeros(net.node_count)
    for i, j in arcs:
        increments[i] += req.demand * energy[i, j]
        occupancy[i] += req.demand
        occupancy[j] += req.demand

    problems: list[str] = []
    if cap > net.max_power + sign * FEASIBILITY_TOL * max(1.0, net.max_power):
        problems.append(f"energy cap {cap} exceeds the power limit {net.max_power}")
    if len(arcs) > req.hop_bound:
        problems.append(f"{len(arcs)} route arcs exceed the hop bound {req.hop_bound}")
    room = net.bandwidth + sign * FEASIBILITY_TOL * max(1.0, net.bandwidth)
    for v in range(net.node_count):
        if occupancy[v] > room:
            problems.append(f"node {v} route occupancy {occupancy[v]} exceeds bandwidth {net.bandwidth}")
    if threshold is not None:
        combined = ledger.consumed + increments
        tolerance = FEASIBILITY_TOL * max(1.0, abs(threshold), float(combined.max()))
        allowed = combined.mean() + threshold + sign * tolerance
        for v in range(net.node_count):
            if combined[v] > allowed:
                problems.append(f"node {v} consumption {combined[v]} above average + threshold")
    return cap, increments, problems


def _cap_bound(net: NetworkModel, req: Request, ledger: EnergyLedger, threshold: float | None) -> float:
    """Cap of the cheapest one- or two-hop route for ``req`` that the route
    judge passes with its margin, else ``max_power``. A passed route stays
    feasible in the model, so no optimal route has an arc dearer than that.
    """
    energy = net.energy_matrix
    s, d = req.sender, req.receiver
    routes = [[(s, d)]] + [[(s, v), (v, d)] for v in range(net.node_count) if v not in (s, d)]
    for arcs in sorted(routes, key=lambda arcs: max(energy[arc] for arc in arcs)):
        cap, _, problems = _route_problems(net, req, ledger, threshold, arcs, -1.0)
        if not problems:
            return cap
    return net.max_power


def _simple_path(arcs: set[tuple[int, int]], start: int, goal: int) -> list[int] | None:
    # Follow the successor map from start; the arcs are one simple path to
    # goal exactly when the walk reaches goal over distinct nodes having used
    # every arc.
    succ = dict(arcs)
    path = [start]
    while path[-1] != goal and path[-1] in succ and len(path) <= len(arcs):
        path.append(succ[path[-1]])
    if path[-1] != goal or len(path) != len(arcs) + 1 or len(set(path)) != len(path):
        return None
    return path


def decode_and_validate(
    net: NetworkModel,
    requests: list[Request],
    ledger: EnergyLedger,
    threshold: float | None,
    raw: Solution,
) -> TopologySolution:
    """Turn an optimal solver result into a route and links, then re-verify.

    ``requests`` must hold the one request the model was built for (else
    :class:`ModelError`). Its route arcs must form exactly one simple path
    from the sender to the receiver; anything else (a path plus a cycle, a
    broken walk) is a violation. Every row is re-checked directly from the
    decoded arcs (not from solver values): the solver's cap, exact unit
    conservation, and the route judge's rows with slack, whose increments are
    exactly what the ledger is charged. The order variables only serve to
    exclude cycles and are not read. ``links`` is the minimal symmetric
    broadcast closure of the route arcs. Raises :class:`ValidationError`
    with all violations on failure.
    """
    if raw.status is not Status.OPTIMAL:
        raise ValidationError(f"cannot decode a solution with status {raw.status.value}")
    req = _single_request(net, requests)
    n = net.node_count
    pairs = _ordered_pairs(n)
    m = len(pairs)
    values = raw.values
    if values is None or values.shape != (1 + m + n,):
        raise ValidationError("solution vector does not match the model layout")

    problems: list[str] = []
    for idx in range(1, 1 + m):
        if min(abs(values[idx]), abs(values[idx] - 1.0)) > INTEGRALITY_TOL:
            problems.append(f"indicator variable {idx} = {values[idx]} is not integral")
    if problems:
        raise ValidationError("; ".join(problems))

    raw_cap = float(values[0])
    arcs = {pair for k, pair in enumerate(pairs) if values[1 + k] > 0.5}

    # Report the energy cap recomputed exactly from the route arcs; the
    # solver's own objective value may sit a rounding error away.
    cap, increments, route_problems = _route_problems(net, req, ledger, threshold, arcs, 1.0)
    if abs(raw_cap - cap) > FEASIBILITY_TOL * max(1.0, cap):
        problems.append(f"solver cap {raw_cap} does not match the route arcs (need {cap})")
    balance = np.zeros(n, dtype=int)
    for i, j in arcs:
        balance[i] += 1
        balance[j] -= 1
    for v in range(n):
        want = 1 if v == req.sender else -1 if v == req.receiver else 0
        if balance[v] != want:
            problems.append(f"node {v} route balance {balance[v]} != {want}")
    path = _simple_path(arcs, req.sender, req.receiver)
    if path is None:
        problems.append(f"route arcs are not one simple path from {req.sender} to {req.receiver}")
    problems += route_problems

    if problems:
        raise ValidationError("; ".join(problems))
    return TopologySolution(
        max_energy=cap,
        links=net.broadcast_closure(arcs),
        routes=[path],
        node_energy=increments,
        resource_limited=False,
    )


def solve_single_request(
    net: NetworkModel,
    request: Request,
    ledger: EnergyLedger,
    threshold: float | None,
    limits: SolveLimits | None = None,
) -> TopologySolution:
    """Admit one request against the current ledger.

    Optimal: decoded, validated topology and route. Infeasible: the request
    is lost — no route, no energy committed. A solver budget stop is also a
    loss but flagged ``resource_limited`` so it is never mistaken for a
    proven-infeasible request.
    """
    model = build_topology_milp(net, [request], ledger, threshold)
    sol = solve(model, limits)
    if sol.status is Status.OPTIMAL:
        return decode_and_validate(net, [request], ledger, threshold, sol)
    if sol.status is Status.INFEASIBLE:
        return TopologySolution(0.0, set(), [None], np.zeros(net.node_count))
    if sol.status is Status.RESOURCE_LIMIT:
        return TopologySolution(0.0, set(), [None], np.zeros(net.node_count), resource_limited=True)
    raise ValidationError(f"topology model unexpectedly {sol.status.value}")
