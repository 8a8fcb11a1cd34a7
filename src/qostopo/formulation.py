"""Optimization models for load balancing and energy-aware topology control.

Two models over a :class:`~qostopo.network.NetworkModel`:

* a load-balancing LP that routes a set of demands fractionally over all
  node pairs and minimizes the worst per-node bandwidth utilization (a
  node's channel is occupied by the flow it forwards in either direction
  plus the demand it originates or terminates), which HiGHS starts from
  its optimal basis, every commodity on its direct arc;
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

An admission's answer is its optimal cap and, of the routes at that cap,
the first by total energy (Toh's min-max with minimum total power), then
hop count, then node sequence. Many admissions need no solver. Before the
model is built, a depth-first search over its open arcs lists its routes,
judging each: with none the request is lost, and the first route in that
order is the answer when the judge passes it with margin and it is either
the only route or within the judge's tolerance of the cap bound (the
bound is attained). Any other admission goes to HiGHS for its optimal cap;
the routes at that cap are then enumerated and ordered, and only a tie
set too large to enumerate, or a first route that passes only with the
judge's slack, goes to a second solve that minimizes the total energy at
that cap.

Solver output is decoded into plain topologies and node paths and then
re-validated from scratch, and the decoder applies the same order at the
solver's cap; one route judge, :class:`_RouteSearch`, states the QoS rows
and their tolerance once, in plain floats, for the cap bound, the route
search and this re-check. An arc set that is not exactly one simple path,
or any other failed re-check, is reported as :class:`ValidationError`,
signalling a bug rather than an infeasible instance. Requests that admit
no feasible route are "lost": reported as such with zero energy committed.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping

import numpy as np

from .milp import (
    AT_LOWER,
    AT_UPPER,
    BASIC,
    FEASIBILITY_TOL,
    INTEGRALITY_TOL,
    MilpModel,
    ModelError,
    Solution,
    SolveLimits,
    SolverError,
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


# The values of an indicator that is exactly integral.
_ZERO_ONE = frozenset((0.0, 1.0))


class ValidationError(Exception):
    """A decoded solution failed the independent constraint re-check.

    Raised for internal inconsistencies (solver output violating the model
    it was given), never for legitimately infeasible instances.
    """


class SolverLimitError(Exception):
    """The solver hit its node/iteration budget before reaching an answer."""


@dataclass(frozen=True, slots=True)
class Request:
    """One unsplittable traffic demand from ``sender`` to ``receiver``.

    ``demand`` is the bandwidth the request occupies, ``hop_bound`` the
    maximum number of links its route may use. Any integer type (numpy's
    included, not bool) is accepted for the node ids and the hop bound, and
    any real type but bool for the demand; they are stored as built-in
    ``int`` and ``float``.
    """

    sender: int
    receiver: int
    demand: float
    hop_bound: int

    def __post_init__(self):
        for label, node in (("sender", self.sender), ("receiver", self.receiver)):
            if isinstance(node, bool) or not (isinstance(node, numbers.Integral) and node >= 0):
                raise ValueError(f"{label} must be a nonnegative integer, got {node!r}")
        if self.sender == self.receiver:
            raise ValueError("sender and receiver must differ")
        demand = self.demand
        if isinstance(demand, bool) or not (isinstance(demand, numbers.Real) and math.isfinite(demand) and demand > 0):
            raise ValueError(f"demand must be positive and finite, got {demand!r}")
        hops = self.hop_bound
        if isinstance(hops, bool) or not (isinstance(hops, numbers.Integral) and hops >= 1):
            raise ValueError(f"hop_bound must be an integer >= 1, got {hops!r}")
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
        if not all(0.0 <= x < math.inf for x in inc.tolist()):  # NaN fails too
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
    """Per-commodity n-by-n flow matrices, stored as their nonzero cells in
    three flat arrays.

    ``keys`` holds commodity (s, d) as ``s * n + d``, ascending, which is
    sorted key order. Entry e is the flow ``values[e]`` in cell ``cells[e]``
    of the commodities' matrices stacked in key order: cell ``c * n * n +
    i * n + j`` is arc (i, j) of the c-th key, and cells ascend. Keys iterate
    as (s, d) tuples in sorted order; each lookup builds the dense matrix
    anew and marks it read-only. Anything that is not a key, node ids
    outside 0..n-1 included, raises :class:`KeyError`.
    """

    __slots__ = ("_n", "_keys", "_cells", "_values")

    def __init__(self, n: int, keys: np.ndarray, cells: np.ndarray, values: np.ndarray) -> None:
        self._n = n
        self._keys = keys
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
        if not all(s in range(n) and d in range(n) for s, d in keys):
            raise ValueError(f"flow keys must be (sender, receiver) pairs of nodes 0..{n - 1}")
        stack = np.array(mats).ravel()
        cells = np.flatnonzero(stack)
        return cls(n, np.array([s * n + d for s, d in keys], dtype=np.int64), cells, stack[cells])

    def __getitem__(self, key: tuple[int, int]) -> np.ndarray:
        n = self._n
        try:
            s, d = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        # s * n + d alone would alias an out-of-range pair onto another key
        if not (s in range(n) and d in range(n)):
            raise KeyError(key)
        c = int(self._keys.searchsorted(s * n + d))
        if c == self._keys.size or self._keys[c] != s * n + d:
            raise KeyError(key)
        lo, hi = self._cells.searchsorted((c * n * n, (c + 1) * n * n))
        mat = np.zeros((n, n))
        mat.put(self._cells[lo:hi] - c * n * n, self._values[lo:hi])
        mat.flags.writeable = False
        return mat

    def __iter__(self):
        return (divmod(key, self._n) for key in self._keys.tolist())

    def __len__(self) -> int:
        return self._keys.size


@dataclass(eq=False, slots=True)
class LoadLpResult:
    """Solved load LP: worst utilization plus the optimal flow assignment.

    ``flows`` is a read-only mapping from each commodity (sender, receiver),
    in sorted order, to its n-by-n matrix of per-arc flow. Only the nonzero
    flows are stored, as three flat arrays (:class:`_FlowMatrices`); each
    lookup returns a fresh read-only dense matrix. A plain dict of matrices
    passed in is stored the same way. ``max_utilization`` > 1 means some
    node needs more channel capacity than it has.
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


class _OnFirstRead:
    """A dataclass field that may be given a zero-argument callable instead
    of its value: the callable runs on the first read, and its result is
    stored in its place. It has no default."""

    def __set_name__(self, owner, name: str) -> None:
        self._slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self._slot)  # tells dataclass there is no default
        value = obj.__dict__[self._slot]
        if callable(value):
            value = obj.__dict__[self._slot] = value()
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self._slot] = value


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
    a genuinely infeasible request. The admission functions here hand
    ``links`` over as a callable, so the closure is computed only when read.
    """

    max_energy: float
    links: set[tuple[int, int]] = _OnFirstRead()
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


def _commodity_arrays(requests: list[Request]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The senders, receivers and demands of the merged commodities."""
    commodities = _merge_commodities(requests)
    return (np.array([s for s, _, _ in commodities], dtype=np.int64),
            np.array([d for _, d, _ in commodities], dtype=np.int64),
            np.array([lam for _, _, lam in commodities], dtype=float))


def _endpoint_demand(n: int, senders: np.ndarray, receivers: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Per node the demand it sends or receives, summed in commodity order,
    each commodity adding at its sender and then at its receiver."""
    # bincount gives integers when there is nothing to sum
    return np.bincount(np.column_stack([senders, receivers]).ravel(), weights=np.repeat(rates, 2),
                       minlength=n).astype(float)


def build_load_lp(net: NetworkModel, requests: list[Request]) -> MilpModel:
    """Build the LP minimizing the worst per-node bandwidth utilization.

    Variables: one utilization bound, then per commodity (duplicate
    endpoint pairs merged) a flow variable per ordered node pair, with
    arcs into the sender and out of the receiver fixed to zero. Rows: flow
    conservation (net outflow = +demand at the sender, -demand at the
    receiver, 0 elsewhere) per commodity and node, then one load row per
    node, at most bandwidth times the utilization bound. A node's load is
    the flow it forwards in either direction plus the demand it originates
    or terminates; the load row states it through conservation, which the
    LP already enforces, so it is exact on every feasible point. A commodity
    that neither starts nor ends at the node carries out what it carries
    in, so it adds twice its outflow. One that starts or ends there has its
    arcs into the sender and out of the receiver fixed at 0, so it adds
    exactly its demand, which moves to the right-hand side: the load row
    reads ``2 * relayed outflow - bandwidth * bound <= -2 * endpoint
    demand``. Fixed arcs appear in no row. A conservation row lists node
    v's arcs to and from each other node j in turn; a load row lists its
    outgoing arcs commodity by commodity and ends with the bound. The
    columns and rows are built as arrays and added in one
    :meth:`MilpModel.add_block`.
    """
    reqs = _check_requests(net, requests)
    n = net.node_count
    m = n * (n - 1)
    senders, receivers, rates = _commodity_arrays(reqs)
    count = senders.size

    util = 0  # the utilization bound; the flows follow it

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
    # blocked[c*m + k]: arc k of commodity c enters its sender or leaves its receiver
    blocked = ((heads == senders[:, None]) | (tails == receivers[:, None])).ravel()
    upper = np.where(blocked, 0.0, math.inf)

    conservation_rhs = np.zeros((count, n))
    conservation_rhs[np.arange(count), senders] = rates
    conservation_rhs[np.arange(count), receivers] = -rates
    conservation_keep = ~blocked[flow - 1]
    conservation_coeffs = np.tile([1.0, -1.0], (count, n, n - 1))

    # load row v: per commodity relaying through v, its open arcs out of v
    # (the closed ones lead into the sender), then the bound; shape (n, count, n-1)
    outgoing = np.arange(count)[None, :, None] * m + arc_out[:, None, :]
    relayed = (nodes != senders) & (nodes != receivers)
    load_keep = relayed[:, :, None] & ~blocked[outgoing]
    load_keep = np.concatenate([load_keep.reshape(n, -1), np.ones((n, 1), dtype=bool)], axis=1)
    load_cols = np.concatenate([1 + outgoing.reshape(n, -1), np.full((n, 1), util)], axis=1)
    load_coeffs = np.full(load_cols.shape, 2.0)
    load_coeffs[:, -1] = -net.bandwidth
    endpoint_demand = _endpoint_demand(n, senders, receivers, rates)

    model = MilpModel()
    model.add_block(
        lower=np.zeros(1 + count * m),
        upper=np.concatenate([[math.inf], upper]),
        rows=np.concatenate([
            np.repeat(np.arange(count * n), 2 * (n - 1))[conservation_keep.ravel()],
            np.repeat(np.arange(count * n, count * n + n), load_cols.shape[1])[load_keep.ravel()],
        ]),
        cols=np.concatenate([flow[conservation_keep], load_cols[load_keep]]),
        coeffs=np.concatenate([conservation_coeffs[conservation_keep], load_coeffs[load_keep]]),
        senses=["="] * (count * n) + ["<="] * n,
        rhs=np.concatenate([conservation_rhs.ravel(), -2.0 * endpoint_demand]),
    )
    model.set_objective({util: 1.0})
    return model


def solve_load_lp(
    net: NetworkModel,
    requests: list[Request],
    limits: SolveLimits | None = None,
) -> LoadLpResult:
    """Solve the load LP and decode per-commodity flow matrices.

    HiGHS starts from the direct-arc basis (:func:`_direct_arc_basis`),
    which is optimal, so it proves the optimum in no simplex iterations;
    the LP stays the authority, and a start HiGHS refuses only costs it
    iterations. The solution is re-checked against every row before being
    returned. Only the nonzero flows are kept (an optimal vertex has at most
    one per basic variable), as three flat arrays. Raises
    :class:`SolverLimitError` if the iteration budget runs out and
    :class:`ValidationError` on any internal inconsistency (the LP is
    feasible and bounded for every valid input).
    """
    reqs = _check_requests(net, requests)
    model = build_load_lp(net, reqs)
    n = net.node_count
    senders, receivers, rates = _commodity_arrays(reqs)
    sol = solve(model, limits, _direct_arc_basis(n, senders, receivers, rates))
    if sol.status is Status.RESOURCE_LIMIT:
        raise SolverLimitError("load LP hit the iteration limit")
    if sol.status is not Status.OPTIMAL:
        raise ValidationError(f"load LP unexpectedly {sol.status.value}")
    problems = check_solution(model, sol.values)
    if problems:
        raise ValidationError("load LP solution failed re-check: " + "; ".join(problems))

    # flow variable 1 + c*m + k is commodity c's k-th ordered pair, and a
    # row-major walk of the off-diagonal cells visits the pairs in that order
    nonzero = np.flatnonzero(sol.values[1:])
    commodity, k = divmod(nonzero, n * (n - 1))
    cells = commodity * (n * n) + np.flatnonzero(~np.eye(n, dtype=bool))[k]
    flows = _FlowMatrices(n, senders * n + receivers, cells, sol.values[1 + nonzero])
    return LoadLpResult(max_utilization=float(sol.values[0]), flows=flows)


def _direct_arc_basis(n: int, senders: np.ndarray, receivers: np.ndarray,
                      rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column and row codes of the load LP's optimal basis, in
    :func:`build_load_lp`'s layout, for the commodities ``senders`` ->
    ``receivers`` with demands ``rates`` (merged, in sorted order).

    Every commodity goes on its direct arc. Basic: the utilization bound;
    per commodity the n-1 arcs out of its sender (a star tree, so the basis
    is nonsingular) and its sender's conservation row; every load row but
    the one of the node with the largest endpoint demand (the first on
    ties), which sits at its upper bound. Every other column and every
    other conservation row is at its lower bound. The point is feasible:
    each arc out of the sender carries the flow its head's conservation row
    asks for, the demand into the receiver and 0 elsewhere, so no node
    relays, and the bound is ``2 * max endpoint demand / bandwidth``. It is
    optimal: the tight load row's dual is -1/bandwidth, which prices every
    relayed arc at +2/bandwidth, so every reduced cost has the right sign.
    """
    count, m = senders.size, n * (n - 1)
    columns = np.full(1 + count * m, AT_LOWER, dtype=np.int8)
    columns[0] = BASIC
    columns[1 + np.arange(count)[:, None] * m + senders[:, None] * (n - 1) + np.arange(n - 1)] = BASIC
    rows = np.full(count * n + n, AT_LOWER, dtype=np.int8)
    rows[np.arange(count) * n + senders] = BASIC
    rows[count * n:] = BASIC
    rows[count * n + int(np.argmax(_endpoint_demand(n, senders, receivers, rates)))] = AT_UPPER
    return columns, rows


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
    The bound comes from a feasible route (:meth:`_RouteSearch.cap_bound`),
    so every optimal route survives.

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
    stay as cuts that tighten the LP relaxation, and both earn their place.
    Over the first 945 HiGHS solves of sequential runs of perfbench's
    admit8 scenarios 9000 on (2-CPU VM, the HiGHS in scipy 1.17.1, two
    rounds), leaving out the hop row raised HiGHS's mean time from 6.2-6.5
    to 10.2-11.9 ms and its p90 from 10.0-10.6 to 19.2-21.3 ms, with the
    same routes. Leaving out the degree rows keeps the time flat (mean
    5.5-5.7 against 6.0-6.1 ms) but gives a wrong verdict: with presolve
    on, HiGHS calls scenario 9248's request 1 (0 -> 7) infeasible, although
    its routes [0, 1, 5, 7] (cap 934.25) and [0, 6, 7] (1418.12) are in the
    model. Links need no variables: their closure never costs more than the
    costliest arc (:meth:`NetworkModel.broadcast_closure`).

    Each row's terms, sense and right-hand side are appended to plain lists
    in the order listed above, each row's terms in the order it lists them
    (cap rows end with the cap, conservation rows list outgoing arcs before
    incoming ones, order rows read u_j, u_i, x_ij, and bandwidth rows list
    arcs in order), and the columns and rows go in as one
    :meth:`MilpModel.add_block`.
    """
    search = _RouteSearch(net, _admission(net, requests, ledger, threshold), ledger, threshold)
    return _topology_model(search, search.cap_bound())


def _admission(net: NetworkModel, requests: Iterable[Request], ledger: EnergyLedger,
               threshold: float | None) -> Request:
    """The one request of an admission, once its inputs are checked."""
    reqs = _check_requests(net, requests)
    if len(reqs) != 1:
        raise ModelError(f"the topology model routes exactly one request, got {len(reqs)}")
    if ledger.node_count != net.node_count:
        raise ModelError(f"ledger covers {ledger.node_count} nodes, network has {net.node_count}")
    if threshold is not None and not math.isfinite(threshold):
        raise ModelError(f"threshold must be finite or None, got {threshold!r}")
    return reqs[0]


def _topology_model(search: _RouteSearch, bound: float) -> MilpModel:
    """:func:`build_topology_milp`'s model of ``search``'s admission with the
    cap bounded by ``bound``, which must be the cap of a route feasible in
    the model."""
    net, req, threshold = search.net, search.req, search.threshold
    n, s, d = net.node_count, req.sender, req.receiver
    hops = float(req.hop_bound)
    pairs = _ordered_pairs(n)
    energy = search.energy
    cost = [energy[i][j] for i, j in pairs]  # arc k is column 1 + k
    u = 1 + len(pairs)  # the order variable of node v is column u + v

    # No simple path enters its sender or leaves its receiver, and no optimal
    # route uses an arc dearer than a route known to be feasible.
    is_open = [j != s and i != d and c <= bound for (i, j), c in zip(pairs, cost)]
    open_arcs = list(itertools.compress(range(len(pairs)), is_open))
    out, into = [[] for _ in range(n)], [[] for _ in range(n)]
    for k in open_arcs:
        i, j = pairs[k]
        out[i].append(1 + k)
        into[j].append(1 + k)

    rows, cols, coeffs, senses, rhs = [], [], [], [], []

    def add(columns: list[int], values: list[float], sense: str, value: float) -> None:
        rows.extend([len(rhs)] * len(columns))
        cols.extend(columns)
        coeffs.extend(values)
        senses.append(sense)
        rhs.append(value)

    if open_arcs:
        add([1 + k for k in open_arcs], [1.0] * len(open_arcs), "<=", hops)
    for v in range(n):
        if out[v]:
            add(out[v] + [0], [cost[x - 1] for x in out[v]] + [-1.0], "<=", 0.0)
            add(out[v], [1.0] * len(out[v]), "<=", 1.0)
        if into[v]:
            add(into[v], [1.0] * len(into[v]), "<=", 1.0)
        flow = 1.0 if v == s else -1.0 if v == d else 0.0
        if out[v] or into[v] or flow:
            add(out[v] + into[v], [1.0] * len(out[v]) + [-1.0] * len(into[v]), "=", flow)
    for k in open_arcs:
        i, j = pairs[k]
        add([u + j, u + i, 1 + k], [1.0, -1.0, -(hops + 1.0)], ">=", -hops)
    for v in range(n):
        if out[v] or into[v]:
            arcs = sorted(out[v] + into[v])
            add(arcs, [req.demand] * len(arcs), "<=", net.bandwidth)
    if threshold is not None and open_arcs:
        # node v's share of the energy an arc adds: its own use when v is the
        # tail, less the 1/n that every use adds to the average
        added = [req.demand * cost[k] for k in open_arcs]
        tails = [pairs[k][0] for k in open_arcs]
        own, other, average = 1.0 - 1.0 / n, 0.0 - 1.0 / n, search.ledger.average()
        for v, consumed in enumerate(search.consumed):
            add([1 + k for k in open_arcs], [a * (own if t == v else other) for a, t in zip(added, tails)], "<=",
                threshold - consumed + average)

    upper = [bound] + [1.0 if o else 0.0 for o in is_open] + [hops] * n
    upper[u + s] = 0.0
    model = MilpModel()
    model.add_block(lower=[0.0] * len(upper), upper=upper, binary=[False] + is_open + [False] * n, rows=rows,
                    cols=cols, coeffs=coeffs, senses=senses, rhs=rhs)
    model.set_objective({0: 1.0})  # the cap
    return model


# The most paths the route search visits (each path it extends or
# completes) before it leaves the admission to HiGHS. With every arc open, a
# request on 15 nodes with hop bound 3 (field15) visits 339 paths, 170 of
# them routes.
_ROUTE_SEARCH_VISITS = 512

# The most paths the search for the best route at HiGHS's optimal cap visits
# before a second HiGHS solve picks it. With every arc open, a request on 15
# nodes visits 339 paths with hop bound 3 (field15) and 3,771 with hop
# bound 4, 1,886 of them routes.
_TIE_VISITS = 4096


class _RouteSearch:
    """One request's route judge and solver-free route search (cap bound,
    walk, best route). Each QoS row is stated once, in plain floats, with a
    tolerance of ``FEASIBILITY_TOL`` times its scale: slack for ``sign=+1``
    (the decoder and the walk), margin for -1 (the cap bound and a route
    the search settles on). ``limits[sign]`` holds the power and bandwidth
    rows: the costliest cap that passes, the bandwidth room, and the most
    nodes a route may visit (all; 2 when a relay's twice the demand breaks
    bandwidth; 0 when the demand does). :meth:`problems` judges any arc
    set, and :meth:`passes` a simple route within the hop bound by the same
    limits, so their verdicts agree bit for bit."""

    __slots__ = ("net", "req", "ledger", "threshold", "energy", "limits", "consumed", "total", "most")

    def __init__(self, net: NetworkModel, req: Request, ledger: EnergyLedger, threshold: float | None) -> None:
        self.net, self.req, self.ledger, self.threshold = net, req, ledger, threshold
        self.energy = net.energy_matrix.tolist()
        power, bandwidth, demand, self.limits = net.max_power, net.bandwidth, req.demand, {}
        for sign in (1.0, -1.0):
            room = bandwidth + sign * FEASIBILITY_TOL * max(1.0, bandwidth)
            self.limits[sign] = (power + sign * FEASIBILITY_TOL * max(1.0, power), room,
                                 len(self.energy) if demand + demand <= room else 2 if demand <= room else 0)
        if threshold is not None:
            self.consumed = ledger.consumed.tolist()
            self.total, self.most = sum(self.consumed), max(self.consumed)

    def problems(self, arcs: Collection[tuple[int, int]], sign: float) -> tuple[float, list[float], list[str]]:
        """Cap (costliest arc, 0 for none) of the route ``arcs``, the energy
        each node adds, and one message per QoS row it breaks with slack
        (``sign=+1``) or margin (-1): ``max_power``, the hop bound, per-node
        bandwidth (the demand at both ends of every arc) and, with a
        threshold, per-node fairness on the ledger plus increments. A simple
        path gets the same verdict whatever the order of its arcs."""
        energy, demand, net = self.energy, self.req.demand, self.net
        power, room, _ = self.limits[sign]
        cap = 0.0  # energies are positive, so this is the costliest arc
        increments = [0.0] * len(energy)
        occupancy = [0.0] * len(energy)
        for i, j in arcs:
            cap = max(cap, energy[i][j])
            increments[i] += demand * energy[i][j]
            occupancy[i] += demand
            occupancy[j] += demand
        messages = []
        if cap > power:
            messages.append(f"energy cap {cap} exceeds the power limit {net.max_power}")
        if len(arcs) > self.req.hop_bound:
            messages.append(f"{len(arcs)} route arcs exceed the hop bound {self.req.hop_bound}")
        messages += [f"node {v} route occupancy {load} exceeds bandwidth {net.bandwidth}"
                     for v, load in enumerate(occupancy) if load > room]
        if self.threshold is not None:
            combined = [consumed + x for consumed, x in zip(self.consumed, increments)]
            limit = self.fairness_limit([demand * energy[i][j] for i, j in arcs], max(combined), sign)
            messages += [f"node {v} consumption {c} above average + threshold"
                         for v, c in enumerate(combined) if c > limit]
        return cap, increments, messages

    def fairness_limit(self, added: list[float], most: float, sign: float) -> float:
        """The most energy a node may hold under the fairness row, with slack
        (``sign=+1``) or margin (-1), once a route adds ``added`` (one entry
        per arc, in any order, since ``fsum`` rounds their sum once) and its
        fullest node holds ``most``: the average plus the threshold, give or
        take ``FEASIBILITY_TOL`` x max(1, |threshold|, most)."""
        threshold = self.threshold
        allowed = (self.total + math.fsum(added)) / len(self.consumed) + threshold
        return allowed + sign * FEASIBILITY_TOL * max(1.0, abs(threshold), most)

    def passes(self, path: list[int], cap: float, sign: float) -> bool:
        """Whether the judge passes the route ``path`` of cap ``cap`` with
        slack (``sign=+1``) or margin (-1)."""
        power, _, nodes = self.limits[sign]
        return cap <= power and len(path) <= nodes and (self.threshold is None or self.fair(path, sign))

    def fair(self, path: list[int], sign: float) -> bool:
        """Whether the route ``path`` meets the fullest node's fairness row with
        slack or margin, as :meth:`problems` reads it."""
        energy, consumed, demand = self.energy, self.consumed, self.req.demand
        added = [demand * energy[i][j] for i, j in zip(path, path[1:])]
        most = max(self.most, max([consumed[i] + a for i, a in zip(path, added)]))
        return most <= self.fairness_limit(added, most, sign)

    def cap_bound(self) -> float:
        """Cap of the cheapest one- or two-hop route (two-hop for H >= 2)
        that the judge passes with margin, else ``max_power``. Such a route
        meets every model row with room beyond HiGHS's 1e-9 tolerances, so
        HiGHS accepts it (one refused even with slack breaks a row by more,
        so HiGHS refuses it), and no optimal route has an arc dearer than
        its cap: the bound fixes the open arcs :meth:`feasible_routes` walks."""
        s, d, energy = self.req.sender, self.req.receiver, self.energy
        routes = [(energy[s][d], [s, d])]
        if self.req.hop_bound >= 2:
            routes += [(max(energy[s][v], energy[v][d]), [s, v, d]) for v in range(len(energy)) if v != s and v != d]
        for cap, path in sorted(routes):  # the least cap that passes, whichever route has it
            if self.passes(path, cap, -1.0):
                return cap
        return self.net.max_power

    def feasible_routes(self, bound: float, visits: int | None = None) -> list[tuple[list[int], float]] | None:
        """Every route of the model with cap bound ``bound`` that the judge
        passes with slack, with its cap, in depth-first order; ``None`` when
        the walk visits more than ``visits`` paths (``_ROUTE_SEARCH_VISITS``
        by default). A route is a simple sender-to-receiver path of at most
        H open arcs (cost at most ``bound``, none into the sender or out of
        the receiver). The walk prunes relays when bandwidth refuses them,
        and carries each path's running cap; with ``bound`` <= ``max_power``
        a complete route leaves only its fairness row to judge."""
        visits = _ROUTE_SEARCH_VISITS if visits is None else visits
        s, d, hops = self.req.sender, self.req.receiver, self.req.hop_bound
        nodes = self.limits[1.0][2]
        if not nodes:
            return []
        relays, threshold, energy = nodes > 2, self.threshold, self.energy

        def successors(i: int) -> list[int]:
            return [j for j, e in enumerate(energy[i]) if e <= bound and j != i and j != s and (relays or j == d)]

        routes = []
        path, caps = [s], [0.0]
        stack = [iter(successors(s))]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                path.pop()
                caps.pop()
            elif nxt not in path:
                visits -= 1
                if visits < 0:
                    return None
                cap = max(caps[-1], energy[path[-1]][nxt])
                if nxt == d:
                    route = path + [d]
                    if threshold is None or self.fair(route, 1.0):
                        routes.append((route, cap))
                elif len(path) < hops:
                    path.append(nxt)
                    caps.append(cap)
                    if len(path) < hops:
                        stack.append(iter(successors(nxt)))
                    else:  # with one arc left, only the one into the receiver can finish a route
                        stack.append(iter((d,) if energy[nxt][d] <= bound else ()))
        return routes

    def best_route(self, routes: list[tuple[list[int], float]] | None,
                   bound: float | None = None) -> TopologySolution | None:
        """The admission of the first of ``routes`` (as :meth:`feasible_routes`
        gives them) by (cap, total energy, hop count, node sequence) if the
        judge passes it with margin too, else ``None``: so for no route or no
        list, and, given the cap bound ``bound``, for two or more routes whose
        least cap falls short of it. Only the routes at that cap are summed."""
        if not routes:
            return None
        low = min([cap for _, cap in routes])
        if bound is not None and len(routes) > 1 and low <= bound - FEASIBILITY_TOL * max(1.0, bound):
            return None
        ties = [path for path, cap in routes if cap == low]
        path = ties[0] if len(ties) == 1 else min(ties, key=lambda tie: (sum(self.increments(tie)), len(tie), tie))
        if not self.passes(path, low, -1.0):
            return None
        return TopologySolution(low, functools.partial(self.net.broadcast_closure, list(zip(path, path[1:]))), [path],
                                np.array(self.increments(path)))

    def increments(self, path: list[int]) -> list[float]:
        """The energy each node adds on the route ``path``, as the judge sums it."""
        increments = [0.0] * len(self.energy)
        for i, j in zip(path, path[1:]):
            increments[i] += self.req.demand * self.energy[i][j]
        return increments


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

    The inputs are checked as :func:`build_topology_milp` checks them
    (else :class:`ModelError`), and ``requests`` must hold the one request
    the model was built for. Its route arcs must form exactly one simple path
    from the sender to the receiver; anything else (a path plus a cycle, a
    broken walk) is a violation. Every row is re-checked directly from the
    decoded arcs (not from solver values): the solver's cap, exact unit
    conservation, and the route judge's rows with slack, whose increments are
    exactly what the ledger is charged. The order variables only serve to
    exclude cycles and are not read. Raises :class:`ValidationError` with
    all violations on failure.

    The route returned need not be the solver's. It is the one
    :func:`solve_single_request` commits at the solver's cap: of the routes
    over arcs no dearer than the solver's route, the first by (cap, total
    energy, hop count, node sequence), when a search of at most
    ``_TIE_VISITS`` paths enumerates them and that route passes the judge
    with margin; else the solver's own route. ``links`` is the minimal
    symmetric broadcast closure of the route's arcs.
    """
    if raw.status is not Status.OPTIMAL:
        raise ValidationError(f"cannot decode a solution with status {raw.status.value}")
    search = _RouteSearch(net, _admission(net, requests, ledger, threshold), ledger, threshold)
    sol = _validated(search, *_route_arcs(net, raw))
    return search.best_route(search.feasible_routes(sol.max_energy, _TIE_VISITS)) or sol


def _route_arcs(net: NetworkModel, raw: Solution) -> tuple[float, set[tuple[int, int]]]:
    """The solver's cap and the route arcs its indicators select; raises
    :class:`ValidationError` when the layout or an indicator is off."""
    n = net.node_count
    m = n * (n - 1)
    values = raw.values
    if values is None or values.shape != (1 + m + n,):
        raise ValidationError("solution vector does not match the model layout")

    indicators = values[1:1 + m].tolist()
    pairs = _ordered_pairs(n)
    if _ZERO_ONE.issuperset(indicators):  # HiGHS mostly hands back exact 0s and 1s
        return float(values[0]), set(itertools.compress(pairs, indicators))
    problems = [f"indicator variable {1 + k} = {v} is not integral"
                for k, v in enumerate(indicators) if min(abs(v), abs(v - 1.0)) > INTEGRALITY_TOL]
    if problems:
        raise ValidationError("; ".join(problems))
    return float(values[0]), {pairs[k] for k, v in enumerate(indicators) if v > 0.5}


def _validated(search: _RouteSearch, raw_cap: float, arcs: set[tuple[int, int]]) -> TopologySolution:
    """:func:`decode_and_validate`'s re-check of the route ``arcs`` of
    ``search``'s admission against the solver's cap ``raw_cap``."""
    # Report the energy cap recomputed exactly from the route arcs; the
    # solver's own objective value may sit a rounding error away.
    net, req = search.net, search.req
    problems = []
    cap, increments, route_problems = search.problems(arcs, 1.0)
    if abs(raw_cap - cap) > FEASIBILITY_TOL * max(1.0, cap):
        problems.append(f"solver cap {raw_cap} does not match the route arcs (need {cap})")
    # One simple path from the sender to the receiver over all the arcs
    # balances every node; only arcs that are not get their balance checked.
    path = _simple_path(arcs, req.sender, req.receiver)
    if path is None:
        n = net.node_count
        balance = [0] * n
        for i, j in arcs:
            balance[i] += 1
            balance[j] -= 1
        for v in range(n):
            want = 1 if v == req.sender else -1 if v == req.receiver else 0
            if balance[v] != want:
                problems.append(f"node {v} route balance {balance[v]} != {want}")
        problems.append(f"route arcs are not one simple path from {req.sender} to {req.receiver}")
    problems += route_problems

    if problems:
        raise ValidationError("; ".join(problems))
    return TopologySolution(
        max_energy=cap,
        links=functools.partial(net.broadcast_closure, arcs),
        routes=[path],
        node_energy=np.array(increments),
        resource_limited=False,
    )


# The most solves of one admission's MILP. HiGHS can end a MILP "optimal"
# with its cap above its own route's costliest arc; that route then bounds
# the cap of the next solve, so the bounds fall strictly from solve to solve.
_SOLVE_ROUNDS = 3


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
    proven-infeasible request. Of the routes at the optimal cap, the one
    committed is the first by total energy (the sum of demand times link
    energy over its arcs), then hop count, then node sequence.

    Many admissions need no solver. A :class:`_RouteSearch` first lists
    every route of :func:`build_topology_milp`'s model (its integer points
    are the simple paths of at most H open arcs) that the route judge passes
    with slack, judging power and bandwidth once for the request and
    fairness once per route. With no route, the request is lost.
    The first route by (cap, total energy, hop count, node sequence) is the
    answer when it passes with margin too (so HiGHS accepts it) and either
    it is the only route or it attains the cap bound to within
    ``FEASIBILITY_TOL`` x max(1, bound), the least cap HiGHS could reach.

    Any other admission (a bound not attained, a first route passing only
    with slack, a search past ``_ROUTE_SEARCH_VISITS`` visits) goes to HiGHS
    for its optimal cap c*. The routes over arcs of at most c* are then
    listed and ordered the same way, and the first is the answer if it
    passes with margin; when that search passes ``_TIE_VISITS`` visits or
    its first route fails the margin, a second solve, under cap bound c*
    with the total energy as objective, decides. The budgets change only
    how often HiGHS runs, not an answer. ``limits`` bounds each solve; an
    admission settled without one spends no solver budget.

    When HiGHS calls the cap model optimal with its cap above the costliest
    arc of its own route (seen with presolve on the HiGHS in scipy 1.17.1),
    and that route is one simple path the judge passes with margin, the
    model is built again with that route's cap as the bound and solved
    again; :class:`SolverError` is raised if the cap still has not settled
    after ``_SOLVE_ROUNDS`` solves. Any other mismatch is a
    :class:`ValidationError`, as :func:`decode_and_validate` reports it.
    When HiGHS calls the cap model infeasible although the complete route
    list holds a route the judge passes with margin (a route HiGHS must
    accept), the verdict is wrong: the list's first route settles the
    admission if it passes with margin, and :class:`SolverError` is raised
    if it does not.
    """
    req = _admission(net, [request], ledger, threshold)
    search = _RouteSearch(net, req, ledger, threshold)
    bound = search.cap_bound()
    routes = search.feasible_routes(bound)
    if routes == []:
        return TopologySolution(0.0, set(), [None], np.zeros(net.node_count))
    sol = search.best_route(routes, bound)
    if sol is not None:
        return sol

    sol = _solve_for_cap(search, bound, limits, routes)
    if sol.lost:
        return sol
    return (search.best_route(search.feasible_routes(sol.max_energy, _TIE_VISITS))
            or _solve_for_energy(search, sol.max_energy, limits))


def _solve_for_cap(search: _RouteSearch, bound: float, limits: SolveLimits | None,
                   routes: list[tuple[list[int], float]] | None) -> TopologySolution:
    """HiGHS's admission on the model with cap bound ``bound``, solved again
    under its route's cap while the cap sits above that route.

    ``routes`` is the route list made before the solve (``None`` when its
    search ran out of visits). A route on it that the judge passes with
    margin is feasible in the model, so an "infeasible" from HiGHS then
    contradicts the list: the admission is settled from the list's first
    route, as without a solve, and :class:`SolverError` is raised when that
    route passes only with slack.
    """
    net, req = search.net, search.req
    for _ in range(_SOLVE_ROUNDS):
        sol = solve(_topology_model(search, bound), limits)
        if sol.status is not Status.OPTIMAL:
            break
        raw_cap, arcs = _route_arcs(net, sol)
        cap, _, problems = search.problems(arcs, -1.0)
        if (raw_cap <= cap + FEASIBILITY_TOL * max(1.0, cap) or problems
                or _simple_path(arcs, req.sender, req.receiver) is None):
            return _validated(search, raw_cap, arcs)
        bound = cap  # a sound route HiGHS stopped above, so one the model keeps
    else:
        raise SolverError(f"HiGHS left the cap above its route's costliest arc in {_SOLVE_ROUNDS} solves")
    if sol.status is Status.INFEASIBLE:
        if routes and any(search.passes(path, route_cap, -1.0) for path, route_cap in routes):
            settled = search.best_route(routes)
            if settled is None:
                raise SolverError("HiGHS calls a model infeasible that has a route passing with margin")
            return settled
        return TopologySolution(0.0, set(), [None], np.zeros(net.node_count))
    if sol.status is Status.RESOURCE_LIMIT:
        return TopologySolution(0.0, set(), [None], np.zeros(net.node_count), resource_limited=True)
    raise ValidationError(f"topology model unexpectedly {sol.status.value}")


def _solve_for_energy(search: _RouteSearch, cap: float, limits: SolveLimits | None) -> TopologySolution:
    """HiGHS's least-energy route of ``search``'s admission at the optimal
    cap ``cap``: the model with cap bound ``cap`` and the route's total
    energy as its objective. The route must attain ``cap``, as
    :func:`decode_and_validate` checks a cap."""
    net, demand, energy = search.net, search.req.demand, search.energy
    model = _topology_model(search, cap)
    pairs = _ordered_pairs(net.node_count)
    model.set_objective({1 + k: demand * energy[i][j] for k, (i, j) in enumerate(pairs)})
    sol = solve(model, limits)
    if sol.status is Status.RESOURCE_LIMIT:
        return TopologySolution(0.0, set(), [None], np.zeros(net.node_count), resource_limited=True)
    if sol.status is not Status.OPTIMAL:
        raise ValidationError(f"least-energy model at the optimal cap unexpectedly {sol.status.value}")
    return _validated(search, cap, _route_arcs(net, sol)[1])
