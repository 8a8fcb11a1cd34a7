"""Optimization-layer proofs.

1. request and ledger construction, including every rejection path
2. load relaxation on hand-checkable instances: utilization values, the
   strict overload rule, flow conservation, commodity merging; one model is
   pinned byte for byte, and the array-built model equals a row-by-row
   reference bit for bit; its nonzero count is pinned to a closed form;
   the load rows, which state a node's load through flow conservation,
   still mean flow out plus flow in plus endpoint demand, and the unscaled
   solve holds on fields rescaled by 1e-3 and 1e3; flows keep only their
   nonzero entries and come back read-only, in sorted commodity order,
   equal to the dense decode;
   on seeded fields of 5-20 nodes, some tuned to a utilization within 1e-6
   of 1, the utilization and overload verdict equal a linprog reference;
   started from its direct-arc basis, the LP needs no simplex iteration and
   equals a solve from HiGHS's own start bit for bit on fields of 2-30
   nodes (reversed and merged pairs, ties in the largest endpoint demand),
   another basis reaches the same optimum, and a flow lookup refuses node
   ids outside the field; only the load LP hands HiGHS a basis
3. topology optimization on hand-checkable instances: direct vs relayed
   routing, link sets, per-node energy commitments; the model holds the
   cap, route arcs and order variables only, and the cheapest one- or
   two-hop route that meets every row with room to spare bounds the cap
   and closes every dearer arc, and bandwidth closes every relayed arc
   when a relay cannot carry twice the demand; with every bandwidth and
   degree row that conservation implies added back, the model has the
   same status and optimal cap on seeded fields, and the sizes of the
   models sent to HiGHS on a fixed admit8 batch are pinned; a node with
   no open arc gets no rows, and the only empty rows kept are
   unsatisfiable (an isolated endpoint, or no open arc at all); one model
   is pinned byte for byte, and the model, added in one block, equals a
   row-by-row reference byte for byte on seeded fields; the model and its
   decoder take exactly one request, and they and the admission refuse a
   ledger of another length and a NaN or infinite threshold
4. infeasible requests come back as lost outcomes, not exceptions; an
   "infeasible" from HiGHS that a listed route passing with margin
   contradicts is settled from the route list, or raises SolverError
5. fairness threshold: binding and slack cases, ledger left untouched
6. decode-time re-verification: a planted violation of each structural rule
   is rejected, and so is any arc set that is not exactly one simple path;
   a route that passes only with the judge's slack is kept
7. seeded relaxation properties: larger thresholds and hop budgets never
   hurt feasibility or the achieved energy cap
8. small seeded instances match the exhaustive routing oracle; sequential
   7-node runs, with and without a threshold, match the simple-path oracle
   request by request
9. solver budgets surface as SolverLimitError / resource-limited losses
   (the load LP's iteration cap binds only without its starting basis)
10. admissions settled without HiGHS: on seeded sequential runs (admit8
    and field15 geometry, thresholds None to 2e5, hop bounds 1-4) and on
    edge fields (isolated endpoints, bandwidth-starved relays, demand above
    bandwidth) every admission has the status and cap of build + solve +
    decode and the simple-path oracle's route, node energy and links; the
    routes found are the oracle's; a lone route that passes only with the
    judge's slack goes to HiGHS and is admitted as build + solve + decode
    admit it, and a spent search budget goes to HiGHS with the same
    answers; the budget covers a field15 request with every arc open; the
    walk and the route judge give one fairness verdict, whatever the order
    of a route's arcs, at the band edge, one ulp either side and near it,
    where exact arithmetic gives it too; a HiGHS optimum whose cap sits
    above its route is solved again under the route's cap (admit8
    scenario 17001766 against the oracle), gives up with SolverError after
    three solves, and reports arcs that are no sound route as the decoder
    does
11. routes at the optimal cap are ordered by total energy, then hop count,
    then node sequence (a square's two equal routes, a cheaper detour with
    an extra hop), by solve_single_request and by the decoder alike; on
    seeded runs of 5-15 nodes, hop bounds 1-4, with and without a
    threshold, admissions equal the oracle's, and with the tie search
    budget cut to one visit the least-energy solve gives the same answers;
    links are computed on first read
"""

import math

import numpy as np
import pytest

import qostopo.formulation as formulation
from oracles import load_lp_linprog, simple_path_bruteforce, single_request_bruteforce
from qostopo import (
    EnergyLedger,
    NetworkModel,
    Request,
    Solution,
    SolveLimits,
    SolverError,
    SolverLimitError,
    Status,
    TopologySolution,
    ValidationError,
    build_load_lp,
    build_topology_milp,
    decode_and_validate,
    solve,
    solve_load_lp,
    solve_single_request,
)


def line(n, spacing=1.0, **kw):
    args = dict(max_power=10.0, bandwidth=50.0)
    args.update(kw)
    pos = np.array([[i * spacing, 0.0] for i in range(n)])
    return NetworkModel(pos, **args)


def random_net(rng, n, box=8.0, **kw):
    args = dict(max_power=2.0 * (box * 1.5) ** 2, bandwidth=100.0)
    args.update(kw)
    return NetworkModel(rng.uniform(0.0, box, size=(n, 2)), **args)


# -- requests and ledgers ---------------------------------------------------


def test_request_validation():
    Request(0, 1, 1.0, 1)
    with pytest.raises(ValueError):
        Request(2, 2, 1.0, 1)
    with pytest.raises(ValueError):
        Request(-1, 2, 1.0, 1)
    with pytest.raises(ValueError):
        Request(0, 1, 0.0, 1)
    with pytest.raises(ValueError):
        Request(0, 1, -2.0, 3)
    with pytest.raises(ValueError):
        Request(0, 1, np.inf, 3)
    with pytest.raises(ValueError):
        Request(0, 1, 1.0, 0)
    base = dict(sender=0, receiver=2, demand=1.0, hop_bound=3)
    for name, bad in (("sender", 2.0), ("receiver", np.float64(1.0)), ("hop_bound", 3.0),
                      ("sender", np.int64(-1)), ("demand", np.float64(np.nan)), ("demand", "1.0"),
                      ("sender", True), ("receiver", False), ("demand", True), ("hop_bound", True)):
        with pytest.raises(ValueError, match=name):
            Request(**{**base, name: bad})


def test_request_accepts_numpy_numbers_and_stores_builtins():
    req = Request(np.int64(0), np.int32(2), np.float64(1.5), np.int64(3))
    assert req == Request(0, 2, 1.5, 3)
    assert [type(v) for v in (req.sender, req.receiver, req.demand, req.hop_bound)] == [int, int, float, int]
    assert type(Request(0, 1, 2, 1).demand) is float
    assert type(Request(0, 1, np.float32(0.5), 1).demand) is float


def test_ledger_basics():
    led = EnergyLedger.empty(3)
    assert led.node_count == 3 and led.total() == 0.0 and led.average() == 0.0
    led.charge(np.array([1.0, 2.0, 3.0]))
    assert led.total() == pytest.approx(6.0)
    assert led.average() == pytest.approx(2.0)

    twin = EnergyLedger(np.array([1.0, 2.0, 3.0]))
    assert led == twin
    copy = led.copy()
    copy.charge(np.array([1.0, 0.0, 0.0]))
    assert led != copy and led.consumed[0] == 1.0


def test_ledger_rejections():
    with pytest.raises(ValueError):
        EnergyLedger(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        EnergyLedger(np.array([[1.0], [2.0]]))
    with pytest.raises(ValueError):
        EnergyLedger(np.array([np.nan, 1.0]))
    led = EnergyLedger.empty(2)
    with pytest.raises(ValueError):
        led.charge(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        led.charge(np.array([1.0, 2.0, 3.0]))


# -- load relaxation --------------------------------------------------------


def test_load_utilization_below_capacity():
    # one request of demand 4 between two nodes with budget 10: each
    # endpoint carries the flow plus its own demand, 8 of 10 units
    net = NetworkModel(np.array([[0.0, 0.0], [1.0, 0.0]]), max_power=10.0, bandwidth=10.0)
    res = solve_load_lp(net, [Request(0, 1, 4.0, 1)])
    assert res.max_utilization == pytest.approx(0.8, abs=1e-9)
    assert not res.overloaded


def test_load_utilization_at_capacity_is_not_overloaded():
    net = line(3, bandwidth=4.0)
    res = solve_load_lp(net, [Request(0, 2, 2.0, 3)])
    assert res.max_utilization == pytest.approx(1.0, abs=1e-9)
    assert not res.overloaded  # the overload rule is strict


def test_load_utilization_overloaded():
    net = line(3, bandwidth=4.0)
    res = solve_load_lp(net, [Request(0, 2, 5.0, 3)])
    assert res.max_utilization == pytest.approx(2.5, abs=1e-9)
    assert res.overloaded


def test_load_with_no_requests():
    res = solve_load_lp(line(3), [])
    assert res.max_utilization == 0.0
    assert res.flows == {}


def test_load_flow_conservation_and_sign():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        net = random_net(rng, n)
        k = int(rng.integers(1, 4))
        reqs = []
        while len(reqs) < k:
            s, d = (int(v) for v in rng.integers(0, n, size=2))
            if s != d:
                reqs.append(Request(s, d, float(rng.uniform(0.5, 4.0)), 3))
        res = solve_load_lp(net, reqs)
        demand = {}
        for r in reqs:
            demand[(r.sender, r.receiver)] = demand.get((r.sender, r.receiver), 0.0) + r.demand
        assert set(res.flows) == set(demand)
        for (s, d), rate in demand.items():
            grid = res.flows[(s, d)]
            assert grid.shape == (n, n)
            assert np.all(grid >= -1e-9)
            assert np.all(np.diag(grid) == 0.0)
            # a merged commodity moves its whole rate out of s and into d
            for v in range(n):
                net_out = grid[v].sum() - grid[:, v].sum()
                want = rate if v == s else -rate if v == d else 0.0
                assert net_out == pytest.approx(want, abs=1e-7)
            # nothing sneaks into the sender or out of the receiver
            assert grid[:, s].sum() == pytest.approx(0.0, abs=1e-9)
            assert grid[d].sum() == pytest.approx(0.0, abs=1e-9)


def test_load_merges_duplicate_commodities():
    net = line(3, bandwidth=40.0)
    split = solve_load_lp(net, [Request(0, 2, 4.0, 3), Request(0, 2, 6.0, 3)])
    merged = solve_load_lp(net, [Request(0, 2, 10.0, 3)])
    assert list(split.flows) == [(0, 2)]
    assert split.max_utilization == pytest.approx(merged.max_utilization, abs=1e-9)


def test_load_relaxation_ignores_power_but_not_boundaries():
    # the relaxation may use any pair, even one the power cap would forbid
    # for routing; only the source/destination boundary arcs are pinned
    net = line(3, max_power=2.0, bandwidth=50.0)
    res = solve_load_lp(net, [Request(0, 2, 10.0, 3)])
    grid = res.flows[(0, 2)]
    assert grid[0].sum() == pytest.approx(10.0, abs=1e-7)
    assert grid[:, 0].sum() == pytest.approx(0.0, abs=1e-9)
    assert grid[2].sum() == pytest.approx(0.0, abs=1e-9)


def test_load_build_rejects_bad_endpoints():
    from qostopo import ModelError

    net = line(3)
    with pytest.raises(ModelError):
        build_load_lp(net, [Request(0, 7, 1.0, 3)])
    with pytest.raises(ModelError):
        solve_load_lp(net, [Request(5, 1, 1.0, 3)])


GOLDEN_LOAD_LP = """\
Minimize
 obj: 1 x0
Subject To
 c0: 1 x1 + 1 x2 + 1 x3 = 1.25
 c1: -1 x1 + 1 x5 + 1 x6 - 1 x11 = 0
 c2: -1 x2 - 1 x5 - 1 x12 = -1.25
 c3: -1 x3 - 1 x6 + 1 x11 + 1 x12 = 0
 c4: 1 x13 + 1 x14 + 1 x15 = 2
 c5: -1 x13 + 1 x17 + 1 x18 - 1 x20 = 0
 c6: -1 x14 - 1 x17 + 1 x20 + 1 x21 = 0
 c7: -1 x15 - 1 x18 - 1 x21 = -2
 c8: -8 x0 <= -6.5
 c9: -8 x0 + 2 x5 + 2 x6 + 2 x17 + 2 x18 <= -0
 c10: -8 x0 + 2 x20 + 2 x21 <= -2.5
 c11: -8 x0 + 2 x11 + 2 x12 <= -4
Bounds
 0 <= x0 <= +inf
 0 <= x1 <= +inf
 0 <= x2 <= +inf
 0 <= x3 <= +inf
 0 <= x4 <= 0
 0 <= x5 <= +inf
 0 <= x6 <= +inf
 0 <= x7 <= 0
 0 <= x8 <= 0
 0 <= x9 <= 0
 0 <= x10 <= 0
 0 <= x11 <= +inf
 0 <= x12 <= +inf
 0 <= x13 <= +inf
 0 <= x14 <= +inf
 0 <= x15 <= +inf
 0 <= x16 <= 0
 0 <= x17 <= +inf
 0 <= x18 <= +inf
 0 <= x19 <= 0
 0 <= x20 <= +inf
 0 <= x21 <= +inf
 0 <= x22 <= 0
 0 <= x23 <= 0
 0 <= x24 <= 0
End
"""


def test_load_model_golden():
    # the whole load LP, byte for byte: the utilization bound, then per
    # commodity in sorted endpoint order one flow per ordered node pair,
    # conservation rows commodity by commodity, then one load row per node.
    # Closed arcs appear in no row, and a load row holds twice the outflow of
    # each commodity the node relays, its endpoint demand twice on the right.
    # The two 0->3 requests merge into one commodity of demand 2; node 1
    # originates and terminates nothing, so its load row reads "<= -0"
    from qostopo import lp_text

    net = NetworkModel([[0, 0], [1, 0], [2, 0.5], [3, 0]], max_power=10.0, bandwidth=8.0)
    reqs = [Request(0, 3, 1.5, 2), Request(0, 2, 1.25, 3), Request(0, 3, 0.5, 3)]
    assert lp_text(build_load_lp(net, reqs)) == GOLDEN_LOAD_LP


def _field20(seed):
    from qostopo import ScenarioParams, generate_scenario

    return generate_scenario(ScenarioParams(
        node_count=20, region=(180.0, 180.0), path_loss_exponent=2.0, max_power=65000.0, bandwidth=200.0,
        request_rate=1.5, mean_demand=10.0, hop_bound=3, threshold=None, seed=seed,
    ))


def _load_lp_by_rows(net, reqs):
    """The load LP built row by row through add_constraint, as a reference."""
    from qostopo import MilpModel
    from qostopo.formulation import _merge_commodities, _ordered_pairs

    n = net.node_count
    commodities = _merge_commodities(reqs)
    model = MilpModel()
    util = model.add_continuous(0.0, np.inf)
    model.set_objective({util: 1.0})
    flow_id = {}

    def closed(s, d, i, j):
        return j == s or i == d

    for s, d, _ in commodities:
        for i, j in _ordered_pairs(n):
            flow_id[(s, d, i, j)] = model.add_continuous(0.0, 0.0 if closed(s, d, i, j) else np.inf)
    for s, d, lam in commodities:
        for v in range(n):
            coeffs = {}
            for j in range(n):
                if j != v:
                    if not closed(s, d, v, j):
                        coeffs[flow_id[(s, d, v, j)]] = 1.0
                    if not closed(s, d, j, v):
                        coeffs[flow_id[(s, d, j, v)]] = -1.0
            model.add_constraint(coeffs, "=", lam if v == s else -lam if v == d else 0.0)
    # node v's load, out + in + endpoint demand, with conservation applied: a
    # relayed commodity carries in what it carries out, and an endpoint's
    # commodity moves exactly its demand through v on open arcs
    for v in range(n):
        coeffs, endpoint_demand = {}, 0.0
        for s, d, lam in commodities:
            if v in (s, d):
                endpoint_demand += lam
                continue
            for j in range(n):
                if j != v and not closed(s, d, v, j):
                    coeffs[flow_id[(s, d, v, j)]] = 2.0
        coeffs[util] = -net.bandwidth
        model.add_constraint(coeffs, "<=", -2.0 * endpoint_demand)
    return model


def _same_floats(a, b):
    # bit for bit, so that -0.0 and 0.0 differ
    return np.array_equal(np.array(a, dtype=float).view(np.int64), np.array(b, dtype=float).view(np.int64))


def test_load_model_matches_row_by_row_reference():
    rng = np.random.default_rng(11)
    cases = [_field20(9_100_000)]
    for _ in range(8):
        n = int(rng.integers(2, 8))
        reqs = []
        for _ in range(int(rng.integers(0, 6))):
            s, d = rng.choice(n, size=2, replace=False)
            reqs.append(Request(int(s), int(d), float(rng.choice([0.1, 0.7, 1.25, 3.0])), 3))
        cases.append((random_net(rng, n), reqs + reqs[:1]))
    for net, reqs in cases:
        got, want = build_load_lp(net, reqs), _load_lp_by_rows(net, reqs)
        assert got.objective == want.objective
        assert got.variables == want.variables
        rows, ref = got.constraints, want.constraints
        assert [(r.sense, list(r.coefficients)) for r in rows] == [(r.sense, list(r.coefficients)) for r in ref]
        assert _same_floats([r.rhs for r in rows], [r.rhs for r in ref])
        for r, w in zip(rows, ref):
            assert _same_floats(list(r.coefficients.values()), list(w.coefficients.values()))


def test_load_model_size_is_pinned():
    # per commodity: 2n(n-1) conservation entries less two for each of its
    # 2n-3 closed arcs, and (n-2)^2 load entries (n-2 relays, each with n-2
    # open arcs out); then the bound once per load row. Rows and variables
    # keep the layout they had when load rows listed every arc both ways
    from qostopo.formulation import _merge_commodities

    net, reqs = _field20(9_100_000)
    model = build_load_lp(net, reqs)
    n, count = net.node_count, len(_merge_commodities(reqs))
    assert (n, count) == (20, 36)
    per_commodity = 2 * n * (n - 1) - 2 * (2 * n - 3) + (n - 2) ** 2
    assert len(model._coeff) == count * per_commodity + n == 36_380
    assert model.num_constraints == count * n + n == 740
    assert model.num_variables == 1 + count * n * (n - 1) == 13_681


_MEANING_SEEDS = range(9_400_000, 9_400_008)


def test_load_rows_mean_out_plus_in_plus_endpoint_demand():
    # a node's load read off the solved flows as defined, not as the rows
    # state it: flow out plus flow in plus the demand it sends or receives
    from qostopo import check_solution
    from qostopo.formulation import _merge_commodities, _ordered_pairs

    for seed in _MEANING_SEEDS:
        net, reqs = _field20(seed)
        n, m = net.node_count, net.node_count * (net.node_count - 1)
        commodities = _merge_commodities(reqs)
        res = solve_load_lp(net, reqs)
        load = np.zeros(n)
        for s, d, lam in commodities:
            mat = res.flows[(s, d)]
            load += mat.sum(axis=1) + mat.sum(axis=0)
            load[[s, d]] += lam
        assert load.max() / net.bandwidth == pytest.approx(res.max_utilization, rel=1e-9, abs=0.0)

        # The solver routes every demand directly, so also plant a flow that
        # relays each commodity through another node: the rows state each
        # node's load as defined, and the worst node's bound is binding.
        model = build_load_lp(net, reqs)
        arc = {pair: k for k, pair in enumerate(_ordered_pairs(n))}
        x, load = np.zeros(model.num_variables), np.zeros(n)
        for c, (s, d, lam) in enumerate(commodities):
            relay = min(set(range(n)) - {s, d})
            for i, j in ((s, relay), (relay, d)):
                x[1 + c * m + arc[(i, j)]] = lam
                load[[i, j]] += lam
            load[[s, d]] += lam
        stated = [sum(coeff * x[var] for var, coeff in row.coefficients.items() if var) - row.rhs
                  for row in model.constraints[-n:]]
        assert stated == pytest.approx(load, rel=1e-12, abs=0.0)
        x[0] = load.max() / net.bandwidth
        assert check_solution(model, x) == []
        x[0] *= 1.0 - 1e-6
        assert len(check_solution(model, x)) == np.count_nonzero(load == load.max()) >= 1


@pytest.mark.parametrize("factor", [1e-3, 1e3])
def test_unscaled_load_lp_holds_on_rescaled_fields(factor):
    # load LPs are solved without scaling; bandwidth and demands a thousand
    # times smaller or larger leave the utilization and the re-check as they are
    import dataclasses

    from qostopo import check_solution

    for seed in _MEANING_SEEDS:
        net, reqs = _field20(seed)
        net = dataclasses.replace(net, bandwidth=net.bandwidth * factor)
        reqs = [dataclasses.replace(r, demand=r.demand * factor) for r in reqs]
        model = build_load_lp(net, reqs)
        sol = solve(model)
        assert sol.status is Status.OPTIMAL and check_solution(model, sol.values) == []
        assert sol.values[0] == pytest.approx(load_lp_linprog(net, reqs), rel=1e-9, abs=0.0)


def test_load_flows_are_sparse_read_only_and_sorted():
    from qostopo import LoadLpResult, check_solution
    from qostopo.formulation import _merge_commodities

    for seed in (9_100_001, 9_100_002):
        net, reqs = _field20(seed)
        res = solve_load_lp(net, reqs)
        # the dense decode of the raw solution, as a traced caller does it
        model = build_load_lp(net, reqs)
        sol = solve(model)
        assert check_solution(model, sol.values) == []
        n, m = net.node_count, net.node_count * (net.node_count - 1)
        keys = [(s, d) for s, d, _ in _merge_commodities(reqs)]
        assert list(res.flows) == keys == sorted(keys) and len(res.flows) == len(keys)
        assert res.max_utilization == float(sol.values[0])
        dense = {}
        for c, key in enumerate(keys):
            mat = np.zeros((n, n))
            mat[~np.eye(n, dtype=bool)] = sol.values[1 + c * m: 1 + (c + 1) * m]
            dense[key] = mat
            assert np.array_equal(res.flows[key], mat)
            assert not res.flows[key].flags.writeable
            with pytest.raises(ValueError):
                res.flows[key][0, 1] = 1.0
        # far fewer flows are kept than the LP has flow variables
        assert sum(np.count_nonzero(res.flows[key]) for key in keys) < m
        # keys are kept as s * n + d: pairs with a node id out of range that
        # would land on a key that way are no keys
        s, d = keys[1]
        for key in [(0, 0), (s + 1, d - n), (s - 1, d + n), (n, 0), (s, d, 0), (s,), "ab", 7, None]:
            assert key not in res.flows
            with pytest.raises(KeyError):
                res.flows[key]

        # a caller's dense dict is kept the same way, in sorted order
        rebuilt = LoadLpResult(res.max_utilization, flows=dict(reversed(list(dense.items()))))
        assert list(rebuilt.flows) == keys
        assert all(np.array_equal(rebuilt.flows[key], dense[key]) for key in keys)
        assert not rebuilt.flows[keys[0]].flags.writeable
        assert LoadLpResult(res.max_utilization, res.flows).flows is res.flows

    empty = solve_load_lp(_field20(9_100_003)[0], [])
    assert empty.flows == {} and list(empty.flows) == [] and LoadLpResult(0.0, {}).flows == {}


def test_load_utilization_matches_linprog_reference():
    import dataclasses

    from qostopo import ScenarioParams, generate_scenario

    field = dict(region=(180.0, 180.0), path_loss_exponent=2.0, max_power=65000.0, bandwidth=200.0,
                 request_rate=1.5, mean_demand=10.0, hop_bound=3, threshold=None)
    cases = []
    for k in range(32):
        node_count = 5 + k % 16
        cases.append(generate_scenario(ScenarioParams(node_count=node_count, seed=9_300_000 + k, **field)))
    # fields whose bandwidth puts the utilization just under or just over 1,
    # where a verdict could flip
    for k, offset in enumerate([-5e-7, 5e-7, -1e-7, 1e-7, -5e-7, 5e-7, -1e-7, 1e-7, -5e-7, 5e-7]):
        net, reqs = cases[3 * k + 1]
        scaled = dataclasses.replace(net, bandwidth=net.bandwidth * load_lp_linprog(net, reqs) / (1.0 + offset))
        assert abs(load_lp_linprog(scaled, reqs) - (1.0 + offset)) < 1e-9
        cases.append((scaled, reqs))
    verdicts = []
    for net, reqs in cases:
        want = load_lp_linprog(net, reqs)
        got = solve_load_lp(net, reqs)
        assert got.max_utilization == pytest.approx(want, rel=1e-9, abs=0.0)
        assert got.overloaded == (want > 1.0)
        verdicts.append(got.overloaded)
    assert len(cases) == 42 and sum(verdicts[32:]) == 5


def test_load_iteration_budget_raises_limit_error(monkeypatch):
    # solve_load_lp starts HiGHS at the optimum, so an iteration cap of one
    # binds only on a solve without that start: there it is a limit status,
    # and solve_load_lp turns a limit status into SolverLimitError
    import qostopo.milp

    rng = np.random.default_rng(0)
    net = random_net(rng, 25, box=100.0, max_power=20000.0, bandwidth=500.0)
    reqs = []
    while len(reqs) < 10:
        s, d = (int(v) for v in rng.integers(0, 25, size=2))
        if s != d:
            reqs.append(Request(s, d, float(rng.uniform(1.0, 5.0)), 3))
    assert solve(build_load_lp(net, reqs), SolveLimits(max_lp_iterations=1)).status is Status.RESOURCE_LIMIT
    assert solve_load_lp(net, reqs, SolveLimits(max_lp_iterations=1)).max_utilization < 1.0

    def stopped(cost, bounds, matrix, row_bounds, integrality, options, basis):
        assert basis is not None
        return qostopo.milp.highs.HighsModelStatus.kIterationLimit, [], math.inf, 0

    monkeypatch.setattr(qostopo.milp, "_highs", stopped)
    with pytest.raises(SolverLimitError, match="iteration limit"):
        solve_load_lp(net, reqs)


def _load_fields():
    """Seeded fields of 2 to 30 nodes: on even node counts every commodity
    has a reverse twice as large, so the largest endpoint demand is tied
    (each end of a pair sends and receives the same); on odd ones every
    request is repeated, so pairs merge; plus two 20-node scenarios."""
    rng = np.random.default_rng(9_500_000)
    fields = []
    for n in range(2, 31):
        net = random_net(rng, n, box=60.0, bandwidth=float(rng.uniform(20.0, 200.0)))
        reqs = []
        for _ in range(1 + n % 4):
            s, d = (int(v) for v in rng.choice(n, 2, replace=False))
            demand = float(rng.uniform(0.5, 4.0))
            reqs += [Request(s, d, demand, 3), Request(d, s, demand, 3), Request(d, s, demand, 3)] if n % 2 == 0 \
                else [Request(s, d, demand, 3)] * 2
        fields.append((net, reqs))
    return fields + [_field20(9_100_004), _field20(9_100_005)]


def test_load_lp_from_its_direct_arc_basis_equals_a_cold_solve():
    # solve_load_lp, which hands HiGHS the direct-arc basis, gives the
    # utilization and every flow of a solve from HiGHS's own start bit for
    # bit, and the utilization of the linprog reference; under an iteration
    # cap of one, since that basis is optimal and HiGHS needs no iteration
    from qostopo.formulation import _endpoint_demand

    ties = merged = 0
    for net, reqs in _load_fields():
        got = solve_load_lp(net, reqs, SolveLimits(max_lp_iterations=1))
        cold = solve(build_load_lp(net, reqs))
        assert cold.status is Status.OPTIMAL
        n, m = net.node_count, net.node_count * (net.node_count - 1)
        assert got.max_utilization == float(cold.values[0])
        assert got.max_utilization == pytest.approx(load_lp_linprog(net, reqs), rel=1e-9, abs=0.0)
        for c, key in enumerate(got.flows):
            mat = np.zeros((n, n))
            mat[~np.eye(n, dtype=bool)] = cold.values[1 + c * m: 1 + (c + 1) * m]
            assert np.array_equal(got.flows[key], mat)
        senders, receivers, rates = formulation._commodity_arrays(reqs)
        endpoint = _endpoint_demand(n, senders, receivers, rates)
        ties += np.count_nonzero(endpoint == endpoint.max()) > 1
        merged += len(got.flows) < len(reqs)
        assert len({(r.sender, r.receiver) for r in reqs}) == len(got.flows)
    assert ties >= 15 and merged >= 29


def test_load_lp_reaches_the_optimum_from_another_basis():
    # a well-formed basis that is not optimal only moves HiGHS's start: the
    # direct-arc basis with the load row of the least loaded node at its
    # bound instead (primal infeasible), and the slack basis
    from qostopo import check_solution
    from qostopo.milp import AT_LOWER, AT_UPPER, BASIC

    for seed in (9_100_006, 9_100_007):
        net, reqs = _field20(seed)
        n = net.node_count
        want = solve_load_lp(net, reqs)
        model = build_load_lp(net, reqs)
        senders, receivers, rates = formulation._commodity_arrays(reqs)
        columns, rows = formulation._direct_arc_basis(n, senders, receivers, rates)
        endpoint = formulation._endpoint_demand(n, senders, receivers, rates)
        rows = rows.copy()
        rows[-n:] = BASIC
        rows[rows.size - n + int(np.argmin(endpoint))] = AT_UPPER
        slack = (np.full(columns.size, AT_LOWER), np.full(rows.size, BASIC))
        for basis in ((columns, rows), slack):
            sol = solve(model, basis=basis)
            assert sol.status is Status.OPTIMAL and check_solution(model, sol.values) == []
            assert sol.values[0] == pytest.approx(want.max_utilization, rel=1e-12, abs=0.0)


# -- topology optimization --------------------------------------------------


def test_two_node_direct_link():
    net = NetworkModel(np.array([[0.0, 0.0], [3.0, 0.0]]), max_power=10.0, bandwidth=50.0)
    sol = solve_single_request(net, Request(0, 1, 1.0, 1), EnergyLedger.empty(2), None)
    assert not sol.lost
    assert sol.max_energy == pytest.approx(9.0, abs=1e-9)
    assert sol.links == {(0, 1), (1, 0)}
    assert sol.routes == [[0, 1]]
    assert sol.node_energy == pytest.approx([9.0, 0.0])


def test_relay_beats_direct_when_hops_allow():
    net = line(3)
    sol = solve_single_request(net, Request(0, 2, 2.0, 3), EnergyLedger.empty(3), None)
    assert sol.max_energy == pytest.approx(1.0, abs=1e-9)
    assert sol.links == {(0, 1), (1, 0), (1, 2), (2, 1)}
    assert sol.routes == [[0, 1, 2]]
    assert sol.node_energy == pytest.approx([2.0, 2.0, 0.0])


def test_tight_hop_bound_forces_direct_link():
    net = line(3)
    sol = solve_single_request(net, Request(0, 2, 2.0, 1), EnergyLedger.empty(3), None)
    assert sol.max_energy == pytest.approx(4.0, abs=1e-9)
    assert sol.routes == [[0, 2]]
    assert sol.node_energy == pytest.approx([8.0, 0.0, 0.0])


def test_unreachable_receiver_is_lost_not_an_error():
    net = NetworkModel(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), max_power=3.0, bandwidth=50.0)
    sol = solve_single_request(net, Request(0, 2, 1.0, 1), EnergyLedger.empty(3), None)
    assert sol.lost and not sol.resource_limited
    assert sol.links == set() and sol.routes == [None]
    assert sol.max_energy == 0.0
    assert sol.node_energy == pytest.approx([0.0, 0.0, 0.0])


def test_bandwidth_starves_relaying():
    # interior occupancy doubles the demand, so a tight budget forces the
    # direct link even though relaying is cheaper on energy
    net = line(3, bandwidth=3.0)
    sol = solve_single_request(net, Request(0, 2, 2.0, 3), EnergyLedger.empty(3), None)
    assert sol.routes == [[0, 2]]
    assert sol.max_energy == pytest.approx(4.0, abs=1e-9)
    # and when even the endpoints cannot carry the demand, the request is lost
    choked = line(3, bandwidth=1.5)
    assert solve_single_request(choked, Request(0, 2, 2.0, 3), EnergyLedger.empty(3), None).lost


def test_threshold_blocks_then_admits():
    net = line(3)
    req = Request(0, 2, 2.0, 3)
    led = EnergyLedger(np.array([0.0, 100.0, 0.0]))
    tight = solve_single_request(net, req, led, 0.0)
    assert tight.lost
    slack = solve_single_request(net, req, led, 1000.0)
    assert not slack.lost and slack.routes == [[0, 1, 2]]
    # the solver never mutates the caller's ledger
    assert led == EnergyLedger(np.array([0.0, 100.0, 0.0]))


def test_threshold_none_is_unconstrained():
    net = line(3)
    led = EnergyLedger(np.array([0.0, 1e9, 0.0]))
    sol = solve_single_request(net, Request(0, 2, 2.0, 3), led, None)
    assert not sol.lost


def test_zero_threshold_rejects_any_first_route():
    # with nothing consumed yet, any route concentrates new energy on the
    # senders, so a zero allowance can never hold
    net = line(3)
    sol = solve_single_request(net, Request(0, 2, 2.0, 3), EnergyLedger.empty(3), 0.0)
    assert sol.lost


@pytest.mark.parametrize("threshold", [None, 50.0])
def test_topology_model_holds_route_arcs_only(threshold):
    # the cap, bounded by the cheapest feasible one- or two-hop route, one
    # indicator per ordered pair (binary when the arc is open, fixed at 0
    # when it enters the sender, leaves the receiver or costs more than the
    # cap's bound), then n order variables; a hop row, a cap row per node
    # with an open out-arc, an out-degree row per node with both an open
    # out-arc and an open in-arc, a conservation row per endpoint and per
    # node with an open arc, one order row per open arc and, with a
    # threshold, n fairness rows -- no link block, no bandwidth row
    from qostopo.formulation import _ordered_pairs

    n = 5
    net = line(n)
    req = Request(0, 4, 1.0, 3)
    model = build_topology_milp(net, [req], EnergyLedger.empty(n), threshold)
    pairs = _ordered_pairs(n)
    arcs = len(pairs)
    assert model.num_variables == 1 + arcs + n
    # node k sits at x = k, so an arc costs its squared gap: the direct link
    # 0->4 (16) is over max_power 10, and the relay route 0-2-4 bounds the cap
    # at 4
    assert model.variables[0].upper == 4.0
    open_arcs = [(i, j) for i, j in pairs if j != 0 and i != 4 and net.energy_matrix[i, j] <= 4.0]
    open_ids = [1 + pairs.index(pair) for pair in open_arcs]
    assert len(open_arcs) == 10
    assert model.binary_ids == open_ids
    bounds = [(var.lower, var.upper) for var in model.variables]
    assert all(bounds[v] == (0.0, 0.0) for v in range(1, 1 + arcs) if v not in open_ids)
    assert bounds[1 + arcs:] == [(0.0, 0.0)] + [(0.0, 3.0)] * (n - 1)
    tails = {i for i, _ in open_arcs}
    heads = {j for _, j in open_arcs}
    touched = tails | heads
    fairness_rows = 0 if threshold is None else n
    rows = 1 + len(tails) + len(tails & heads) + len(touched | {0, 4}) + len(open_arcs) + fairness_rows
    assert model.num_constraints == rows
    assert_empty_rows_unsatisfiable(model)


@pytest.mark.parametrize("count", [0, 2])
def test_topology_model_and_decoder_take_exactly_one_request(count):
    from qostopo import ModelError

    net = line(3)
    reqs = [Request(0, 2, 1.0, 3), Request(1, 2, 1.0, 3)][:count]
    with pytest.raises(ModelError, match="exactly one request"):
        build_topology_milp(net, reqs, EnergyLedger.empty(3), None)
    raw = _relay_layout(net, {(0, 1), (1, 2)}, 1.0)
    with pytest.raises(ModelError, match="exactly one request"):
        decode_and_validate(net, reqs, EnergyLedger.empty(3), None, raw)


@pytest.mark.parametrize("entry", ["build", "solve", "decode"])
@pytest.mark.parametrize("nodes, threshold, message", [
    (2, None, "ledger covers 2 nodes"), (4, 1.0, "ledger covers 4 nodes"), (3, math.nan, "threshold must be finite"),
    (3, math.inf, "threshold must be finite"), (3, -math.inf, "threshold must be finite")])
def test_admission_entry_points_refuse_a_wrong_ledger_or_threshold(entry, nodes, threshold, message):
    # the model builder, the admission and the decoder alike refuse a ledger
    # of another length than the network and a NaN (which no fairness row
    # would refuse) or infinite threshold
    from qostopo import ModelError

    net, req, ledger = line(3), Request(0, 2, 1.0, 3), EnergyLedger.empty(nodes)
    raw = _relay_layout(net, {(0, 1), (1, 2)}, 1.0)
    with pytest.raises(ModelError, match=message):
        if entry == "build":
            build_topology_milp(net, [req], ledger, threshold)
        elif entry == "solve":
            solve_single_request(net, req, ledger, threshold)
        else:
            decode_and_validate(net, [req], ledger, threshold, raw)


GOLDEN_LP = """\
Minimize
 obj: 1 x0
Subject To
 c0: 1 x1 + 1 x5 + 1 x6 + 1 x8 + 1 x9 <= 3
 c1: -1 x0 + 1 x1 <= 0
 c2: 1 x1 = 1
 c3: -1 x0 + 1.25 x5 + 4 x6 <= 0
 c4: 1 x5 + 1 x6 <= 1
 c5: -1 x1 + 1 x5 + 1 x6 - 1 x8 = 0
 c6: -1 x0 + 1.25 x8 + 1.25 x9 <= 0
 c7: 1 x8 + 1 x9 <= 1
 c8: -1 x5 + 1 x8 + 1 x9 = 0
 c9: -1 x6 - 1 x9 = -1
 c10: -4 x1 - 1 x13 + 1 x14 >= -3
 c11: -4 x5 - 1 x14 + 1 x15 >= -3
 c12: -4 x6 - 1 x14 + 1 x16 >= -3
 c13: -4 x8 + 1 x14 - 1 x15 >= -3
 c14: -4 x9 - 1 x15 + 1 x16 >= -3
 c15: 1.5 x1 - 0.625 x5 - 2 x6 - 0.625 x8 - 0.625 x9 <= 21
 c16: -0.5 x1 + 1.875 x5 + 6 x6 - 0.625 x8 - 0.625 x9 <= 18
 c17: -0.5 x1 - 0.625 x5 - 2 x6 + 1.875 x8 + 1.875 x9 <= 20
 c18: -0.5 x1 - 0.625 x5 - 2 x6 - 0.625 x8 - 0.625 x9 <= 21
Bounds
 0 <= x0 <= 4
 0 <= x2 <= 0
 0 <= x3 <= 0
 0 <= x4 <= 0
 0 <= x7 <= 0
 0 <= x10 <= 0
 0 <= x11 <= 0
 0 <= x12 <= 0
 0 <= x13 <= 0
 0 <= x14 <= 3
 0 <= x15 <= 3
 0 <= x16 <= 3
Binary
 x1
 x5
 x6
 x8
 x9
End
"""


def test_topology_model_golden():
    # the whole model, byte for byte: a hop row, then cap, relay out-degree
    # and conservation rows node by node, order rows and fairness rows.
    # Node 2 sits off the line, half a unit from nodes 1 and 3; the route
    # 0-1-3 (costliest arc 4) bounds the cap at 4, which closes the direct
    # link (9) and 0->2 (4.25) and leaves 5 arcs open; a relay carries twice
    # the demand (4) within bandwidth 5. Every coefficient is an exact
    # binary fraction
    from qostopo import lp_text

    net = NetworkModel([[0, 0], [1, 0], [2, 0.5], [3, 0]], max_power=10.0, bandwidth=5.0)
    model = build_topology_milp(net, [Request(0, 3, 2.0, 3)], EnergyLedger([0, 3, 1, 0]), 20)
    assert lp_text(model) == GOLDEN_LP


def assert_empty_rows_unsatisfiable(model):
    # a row with no coefficients reads "0 <sense> rhs"; the builder keeps one
    # only when that is false, i.e. when it makes the model infeasible
    for row in model.constraints:
        if not row.coefficients:
            assert {"<=": row.rhs < 0, ">=": row.rhs > 0, "=": row.rhs != 0}[row.sense], row


def test_topology_model_skips_rows_of_a_node_with_no_open_arc():
    # node 3 sits 50 units off the line: every arc at it costs over max_power,
    # so it gets no cap, degree or conservation row
    net = NetworkModel(
        np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [50.0, 0.0]]), max_power=10.0, bandwidth=50.0
    )
    req = Request(0, 2, 2.0, 3)
    model = build_topology_milp(net, [req], EnergyLedger.empty(4), None)
    assert_empty_rows_unsatisfiable(model)
    # the relay route 0-1-2 bounds the cap at 1, leaving open only 0->1 and
    # 1->2: a hop row, cap rows at 0 and 1, an out-degree row at the relay 1,
    # conservation at 0, 1 and 2, and two order rows
    assert model.binary_ids == [1 + formulation._ordered_pairs(4).index(pair) for pair in [(0, 1), (1, 2)]]
    assert model.num_constraints == 1 + 2 + 1 + 3 + 2
    sol = solve_single_request(net, req, EnergyLedger.empty(4), None)
    assert sol.routes == [[0, 1, 2]]
    assert sol.node_energy == pytest.approx([2.0, 2.0, 0.0, 0.0])


@pytest.mark.parametrize("sender, receiver", [(0, 2), (2, 0)])
def test_isolated_endpoint_is_lost(sender, receiver):
    # node 0 is 10 units from the others and max_power is 10: its arcs are all
    # closed, and its empty conservation row (right-hand side +-1) is kept
    net = NetworkModel(np.array([[0.0, 0.0], [10.0, 0.0], [11.0, 0.0]]), max_power=10.0, bandwidth=50.0)
    req = Request(sender, receiver, 1.0, 2)
    model = build_topology_milp(net, [req], EnergyLedger.empty(3), None)
    assert_empty_rows_unsatisfiable(model)
    assert any(not row.coefficients for row in model.constraints)
    assert solve(model).status is Status.INFEASIBLE
    sol = solve_single_request(net, req, EnergyLedger.empty(3), None)
    assert sol.lost and not sol.resource_limited


def test_model_with_no_open_arc_keeps_only_unsatisfiable_rows():
    # the receiver is out of reach, so no arc is open: the hop row and the
    # fairness rows would be empty and satisfiable, and only the endpoints'
    # conservation rows stay
    net = NetworkModel([(0, 0), (10, 0)], max_power=10.0, bandwidth=50.0)
    req = Request(0, 1, 1.0, 1)
    model = build_topology_milp(net, [req], EnergyLedger.empty(2), 5.0)
    assert model.binary_ids == []
    assert_empty_rows_unsatisfiable(model)
    assert model.num_constraints == 2
    sol = solve_single_request(net, req, EnergyLedger.empty(2), 5.0)
    assert sol.lost and not sol.resource_limited


def _topology_by_rows(net, req, ledger, threshold, every_row=False):
    """The topology MILP built row by row through add_constraint, as a
    reference for the array-built model; the same cap bound, then the
    variables and rows in the order build_topology_milp documents. With
    ``every_row`` it keeps the rows that conservation implies: bandwidth
    closes no arc, and every node with an open arc gets its out- and
    in-degree rows and a bandwidth row."""
    from qostopo import MilpModel
    from qostopo.formulation import _ordered_pairs
    from qostopo.milp import FEASIBILITY_TOL

    n = net.node_count
    pairs = _ordered_pairs(n)
    energy = net.energy_matrix
    bound = formulation._RouteSearch(net, req, ledger, threshold).cap_bound()
    hops = float(req.hop_bound)
    s, d = req.sender, req.receiver
    # bandwidth read with slack: a relay carries twice the demand, an endpoint once
    room = net.bandwidth + FEASIBILITY_TOL * max(1.0, net.bandwidth)
    relays = every_row or 2 * req.demand <= room

    model = MilpModel()
    cap = model.add_continuous(0.0, bound)
    model.set_objective({cap: 1.0})
    open_arcs = [(i, j) for i, j in pairs if j != s and i != d and energy[i, j] <= bound
                 and (relays or (req.demand <= room and (i, j) == (s, d)))]
    live = set(open_arcs)
    x = {pair: model.add_binary() if pair in live else model.add_continuous(0.0, 0.0) for pair in pairs}
    u = [model.add_continuous(0.0, 0.0 if v == s else hops) for v in range(n)]

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
            if every_row or into[v]:
                model.add_constraint({x[pair]: 1.0 for pair in out[v]}, "<=", 1.0)
        if every_row and into[v]:
            model.add_constraint({x[pair]: 1.0 for pair in into[v]}, "<=", 1.0)
        rhs = 1.0 if v == s else -1.0 if v == d else 0.0
        if out[v] or into[v] or rhs:
            flow = {**{x[pair]: 1.0 for pair in out[v]}, **{x[pair]: -1.0 for pair in into[v]}}
            model.add_constraint(flow, "=", rhs)
    for i, j in open_arcs:
        model.add_constraint({u[j]: 1.0, u[i]: -1.0, x[(i, j)]: -(hops + 1.0)}, ">=", -hops)
    for v in range(n):
        if every_row and (out[v] or into[v]):
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


def test_topology_model_matches_row_by_row_reference():
    # the array-built model against the row-by-row reference, storage byte
    # for byte: fields of 2 to 15 nodes, hop bounds 1 to 4, thresholds None,
    # 0, 2e3 and 2e5 on non-empty ledgers, endpoints out of every node's
    # reach, and bandwidth too tight for any relay
    rng = np.random.default_rng(17)
    cases = 0
    for n in range(2, 16):
        for variant in ("plain", "isolated", "starved"):
            positions = rng.uniform(0.0, 100.0, size=(n, 2))
            demand = float(rng.uniform(5.0, 15.0))
            bandwidth = 1.5 * demand if variant == "starved" else float(rng.uniform(30.0, 80.0))
            s, d = (int(v) for v in rng.choice(n, size=2, replace=False))
            if variant == "isolated":
                positions[rng.choice([s, d])] = [1e3, 1e3]
            net = NetworkModel(positions, max_power=20000.0, bandwidth=bandwidth)
            ledger = EnergyLedger(rng.uniform(0.0, 5e3, size=n))
            for threshold in (None, 0, 2e3, 2e5):
                req = Request(s, d, demand, int(rng.integers(1, 5)))
                got = build_topology_milp(net, [req], ledger, threshold)
                want = _topology_by_rows(net, req, ledger, threshold)
                for mine, ref in zip(got._row_arrays() + got._column_arrays(),
                                     want._row_arrays() + want._column_arrays()):
                    assert mine.dtype == ref.dtype and mine.tobytes() == ref.tobytes(), (n, variant, threshold)
                assert list(got.objective.items()) == list(want.objective.items())
                assert _same_floats(list(got.objective.values()), list(want.objective.values()))
                # an isolated endpoint keeps its empty, unsatisfiable row
                assert (variant != "isolated") or any(not row.coefficients for row in got.constraints)
                cases += 1
    assert cases == 14 * 3 * 4


def test_topology_model_solves_as_with_every_implied_row():
    # the model against the row-by-row reference with every bandwidth and
    # degree row added back and no arc closed by bandwidth: the same HiGHS
    # status and optimal cap on fields of 2 to 15 nodes, hop bounds 1 to 4,
    # thresholds None, 0, 2e3 and 3e4 on non-empty ledgers, endpoints out of
    # every node's reach, bandwidth too tight for any relay and demand above
    # bandwidth; every demand is clear of the judge's tolerance band
    rng = np.random.default_rng(29)
    statuses = []
    for n in range(2, 16):
        for variant in ("plain", "isolated", "starved", "overdemand"):
            positions = rng.uniform(0.0, 100.0, size=(n, 2))
            demand = float(rng.uniform(5.0, 15.0))
            bandwidth = {"plain": float(rng.uniform(35.0, 80.0)), "isolated": 60.0, "starved": 1.5 * demand,
                         "overdemand": 0.9 * demand}[variant]
            s, d = (int(v) for v in rng.choice(n, size=2, replace=False))
            if variant == "isolated":
                positions[rng.choice([s, d])] = [1e3, 1e3]
            net = NetworkModel(positions, max_power=20000.0, bandwidth=bandwidth)
            ledger = EnergyLedger(rng.uniform(0.0, 5e3, size=n))
            for threshold in (None, 0.0, 2e3, 3e4):
                req = Request(s, d, demand, int(rng.integers(1, 5)))
                got = solve(build_topology_milp(net, [req], ledger, threshold))
                want = solve(_topology_by_rows(net, req, ledger, threshold, every_row=True))
                where = (n, variant, threshold, req)
                assert got.status is want.status, where
                if got.status is Status.OPTIMAL:
                    assert got.objective_value == pytest.approx(want.objective_value, rel=1e-9), where
                    caps = [max(net.energy_matrix[arc] for arc in formulation._route_arcs(net, sol)[1])
                            for sol in (got, want)]
                    assert caps[0] == caps[1], where
                statuses.append(got.status)
    assert len(statuses) == 14 * 4 * 4
    assert statuses.count(Status.OPTIMAL) >= 50 and statuses.count(Status.INFEASIBLE) >= 50


# (network, request, threshold, cap bound) on an empty ledger, some of them
# within the judge's tolerance of a row
_CAP_BOUND_FIELDS = [
    # the direct link (4) beats the only relay, which sits far off the line
    (NetworkModel([[0.0, 0.0], [2.0, 0.0], [1.0, 5.0]], max_power=30.0, bandwidth=50.0),
     Request(0, 1, 1.0, 2), None, 4.0),
    # relaying through node 1 (1 per hop) beats the direct link (4)
    (line(3), Request(0, 2, 2.0, 3), None, 1.0),
    # the relay would carry 2 x 2 over bandwidth 3: only the direct link
    # counts, and it is the only open arc
    (line(3, bandwidth=3.0), Request(0, 2, 2.0, 3), None, 4.0),
    # hop bound 1 leaves the direct link alone
    (line(3), Request(0, 2, 2.0, 1), None, 4.0),
    # the direct link is over max_power and no relay may be used: no bound
    (line(3, max_power=3.0), Request(0, 2, 2.0, 1), None, 3.0),
    # the direct link (9) needs threshold >= 4.5 on an empty two-node
    # ledger; the margin is 1e-7 x 9, so it counts only with more room
    (line(2, spacing=3.0), Request(0, 1, 1.0, 1), 4.5 + 2e-6, 9.0),
    (line(2, spacing=3.0), Request(0, 1, 1.0, 1), 4.5 + 4e-7, 10.0),
    (line(2, spacing=3.0), Request(0, 1, 1.0, 1), 4.5 - 4e-7, 10.0),
    # the relay carries 2 x 1; the margin is 1e-7 x 2, so the relay counts
    # only with bandwidth above 2 + 2e-7, and 2 - 5e-8 leaves the direct link
    (line(3, bandwidth=2 - 5e-8), Request(0, 2, 1.0, 3), None, 4.0),
    (line(3, bandwidth=2 + 5e-7), Request(0, 2, 1.0, 3), None, 1.0),
]


@pytest.mark.parametrize("net, req, threshold, bound", _CAP_BOUND_FIELDS)
def test_cap_bound_from_one_and_two_hop_routes(net, req, threshold, bound):
    # the bound closes every dearer arc, and bandwidth, read with slack,
    # every arc but the direct one when a relay cannot carry twice the demand
    from qostopo.formulation import _ordered_pairs
    from qostopo.milp import FEASIBILITY_TOL

    ledger = EnergyLedger.empty(net.node_count)
    model = build_topology_milp(net, [req], ledger, threshold)
    assert model.variables[0].upper == bound
    pairs = _ordered_pairs(net.node_count)
    relays = 2 * req.demand <= net.bandwidth + FEASIBILITY_TOL * max(1.0, net.bandwidth)
    for k, (i, j) in enumerate(pairs):
        var = model.variables[1 + k]
        usable = (j != req.sender and i != req.receiver and net.energy_matrix[i, j] <= bound
                  and (relays or (i, j) == (req.sender, req.receiver)))
        assert var.is_binary == usable and (usable or var.upper == 0.0)
    sol = solve_single_request(net, req, ledger, threshold)
    assert sol.lost or sol.max_energy <= bound


def test_solution_lost_reads_its_one_route():
    routed = TopologySolution(1.0, {(0, 1), (1, 0)}, [[0, 1]], np.array([1.0, 0.0]))
    assert not routed.lost
    assert TopologySolution(0.0, set(), [None], np.zeros(2)).lost
    assert TopologySolution(0.0, set(), [None], np.zeros(2), resource_limited=True).lost


def test_links_are_computed_on_first_read(monkeypatch):
    # an admission hands its links over unevaluated; the first read computes
    # the closure once and keeps it, and the dataclass keeps its fields,
    # their order, positional construction and dataclasses.replace
    import dataclasses

    closures = []
    closure = NetworkModel.broadcast_closure
    monkeypatch.setattr(NetworkModel, "broadcast_closure", lambda net, links: closures.append(1) or closure(net, links))
    net = line(3)
    sol = solve_single_request(net, Request(0, 2, 1.0, 2), EnergyLedger.empty(3), None)
    assert sol.routes == [[0, 1, 2]] and closures == []
    assert sol.links == closure(net, {(0, 1), (1, 2)}) and closures == [1]
    assert sol.links is sol.links and closures == [1]
    moved = dataclasses.replace(sol, routes=[[0, 2]])
    assert moved.links == sol.links and moved.routes == [[0, 2]] and closures == [1]
    assert [f.name for f in dataclasses.fields(TopologySolution)] == [
        "max_energy", "links", "routes", "node_energy", "resource_limited"]
    assert TopologySolution(1.0, {(0, 1)}, [[0, 1]], np.zeros(2)).links == {(0, 1)}


# -- decode-time re-verification ---------------------------------------------


def _relay_layout(net, route_arcs, cap):
    """Assemble a raw solver vector for the standard variable layout.

    The order variables after the arc block stay 0: the decoder judges the
    arcs alone.
    """
    from qostopo.formulation import _ordered_pairs

    n = net.node_count
    pairs = _ordered_pairs(n)
    values = np.zeros(1 + len(pairs) + n)
    values[0] = cap
    for k, pair in enumerate(pairs):
        if pair in route_arcs:
            values[1 + k] = 1.0
    return Solution(Status.OPTIMAL, values=values, objective_value=float(cap))


def test_decode_accepts_hand_built_relay():
    net = line(3)
    req = Request(0, 2, 2.0, 3)
    raw = _relay_layout(net, {(0, 1), (1, 2)}, 1.0)
    sol = decode_and_validate(net, [req], EnergyLedger.empty(3), None, raw)
    assert sol.routes == [[0, 1, 2]]
    assert sol.max_energy == pytest.approx(1.0)


def test_decode_rejects_cap_mismatch():
    net = line(3)
    req = Request(0, 2, 2.0, 3)
    raw = _relay_layout(net, {(0, 1), (1, 2)}, 0.25)
    with pytest.raises(ValidationError, match="does not match"):
        decode_and_validate(net, [req], EnergyLedger.empty(3), None, raw)


def test_decode_rejects_broken_conservation():
    net = line(3)
    req = Request(0, 2, 2.0, 3)
    raw = _relay_layout(net, {(0, 1)}, 1.0)
    with pytest.raises(ValidationError, match="balance"):
        decode_and_validate(net, [req], EnergyLedger.empty(3), None, raw)


def test_decode_rejects_fractional_indicator():
    net = line(3)
    req = Request(0, 2, 2.0, 3)
    raw = _relay_layout(net, {(0, 1), (1, 2)}, 1.0)
    values = raw.values.copy()
    values[1] = 0.4
    with pytest.raises(ValidationError, match="not integral"):
        decode_and_validate(
            net, [req], EnergyLedger.empty(3), None, Solution(Status.OPTIMAL, values, 1.0)
        )


def test_decode_rejects_wrong_layout_and_status():
    net = line(3)
    req = Request(0, 2, 2.0, 3)
    with pytest.raises(ValidationError, match="layout"):
        decode_and_validate(
            net, [req], EnergyLedger.empty(3), None, Solution(Status.OPTIMAL, np.zeros(4), 0.0)
        )
    with pytest.raises(ValidationError, match="status"):
        decode_and_validate(net, [req], EnergyLedger.empty(3), None, Solution(Status.INFEASIBLE))


def test_decode_rejects_bandwidth_violation():
    net = line(3, bandwidth=3.0)
    req = Request(0, 2, 2.0, 3)
    raw = _relay_layout(net, {(0, 1), (1, 2)}, 1.0)
    with pytest.raises(ValidationError, match="bandwidth"):
        decode_and_validate(net, [req], EnergyLedger.empty(3), None, raw)


def test_decode_rejects_threshold_violation():
    net = line(3)
    req = Request(0, 2, 2.0, 3)
    raw = _relay_layout(net, {(0, 1), (1, 2)}, 1.0)
    led = EnergyLedger(np.array([0.0, 100.0, 0.0]))
    with pytest.raises(ValidationError, match="above average"):
        decode_and_validate(net, [req], led, 0.0, raw)


def test_decode_allows_slack_on_bandwidth_and_fairness():
    # the decoder widens each row by 1e-7 times its scale: 2 for the relay's
    # bandwidth, and 9 for fairness, where the direct link of a two-node line
    # leaves node 0 at 9, that is 4.5 above the mean
    req = Request(0, 2, 1.0, 3)
    raw = _relay_layout(line(3), {(0, 1), (1, 2)}, 1.0)
    sol = decode_and_validate(line(3, bandwidth=2 - 5e-8), [req], EnergyLedger.empty(3), None, raw)
    assert sol.routes == [[0, 1, 2]]
    with pytest.raises(ValidationError, match="bandwidth"):
        decode_and_validate(line(3, bandwidth=2 - 5e-7), [req], EnergyLedger.empty(3), None, raw)
    net = line(2, spacing=3.0)
    req = Request(0, 1, 1.0, 1)
    raw = _relay_layout(net, {(0, 1)}, 9.0)
    assert decode_and_validate(net, [req], EnergyLedger.empty(2), 4.5 - 4e-7, raw).routes == [[0, 1]]
    with pytest.raises(ValidationError, match="above average"):
        decode_and_validate(net, [req], EnergyLedger.empty(2), 4.5 - 2e-6, raw)


def test_decode_rejects_path_over_the_hop_bound():
    net = line(3)
    req = Request(0, 2, 2.0, 1)
    raw = _relay_layout(net, {(0, 1), (1, 2)}, 1.0)
    with pytest.raises(ValidationError, match="hop bound"):
        decode_and_validate(net, [req], EnergyLedger.empty(3), None, raw)


def test_decode_rejects_path_plus_cycle():
    # the path 0 -> 2 plus a 1 <-> 2 cycle through its receiver balances at
    # every node and fits the hop row; the cycle spends energy at the idle
    # node 1 and lifts the average over the hot node 3, which the path alone
    # would leave above average + threshold
    net = line(4)
    req = Request(0, 2, 1.0, 3)
    raw = _relay_layout(net, {(0, 2), (1, 2), (2, 1)}, 4.0)
    led = EnergyLedger(np.array([0.0, 0.0, 0.0, 12.0]))
    with pytest.raises(ValidationError, match="not one simple path"):
        decode_and_validate(net, [req], led, 7.7, raw)
    with pytest.raises(ValidationError, match="not one simple path"):
        decode_and_validate(net, [req], led, None, raw)
    # a cycle through the sender: node 0 leaves by two arcs
    wide = Request(0, 2, 2.0, 4)
    raw = _relay_layout(net, {(0, 1), (1, 2), (0, 3), (3, 0)}, 9.0)
    with pytest.raises(ValidationError, match="not one simple path"):
        decode_and_validate(net, [wide], EnergyLedger.empty(4), None, raw)


def test_decode_rejects_path_plus_disjoint_cycle():
    # the path 0 -> 1 -> 2 plus a 3 <-> 4 cycle that shares no node with it
    net = line(5)
    req = Request(0, 2, 2.0, 4)
    raw = _relay_layout(net, {(0, 1), (1, 2), (3, 4), (4, 3)}, 1.0)
    with pytest.raises(ValidationError, match="not one simple path"):
        decode_and_validate(net, [req], EnergyLedger.empty(5), None, raw)
    # the same path alone is accepted and commits its own energy
    raw = _relay_layout(net, {(0, 1), (1, 2)}, 1.0)
    sol = decode_and_validate(net, [req], EnergyLedger.empty(5), None, raw)
    assert sol.routes == [[0, 1, 2]]
    assert sol.node_energy == pytest.approx([2.0, 2.0, 0.0, 0.0, 0.0])


# -- relaxation properties ---------------------------------------------------


def test_threshold_relaxation_never_hurts():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(15):
        n = int(rng.integers(3, 6))
        net = random_net(rng, n)
        s, d = 0, 1
        req = Request(s, d, float(rng.uniform(0.5, 3.0)), int(rng.integers(1, 4)))
        led = EnergyLedger(rng.uniform(0.0, 60.0, size=n) * (rng.random(n) < 0.7))
        spread = float(led.consumed.max() - led.consumed.mean())
        lo = float(rng.uniform(0.5, 2.0)) * max(spread, 2.0)
        hi = lo + float(rng.uniform(0.5, 40.0))
        tight = solve_single_request(net, req, led, lo)
        loose = solve_single_request(net, req, led, hi)
        if not tight.lost:
            assert not loose.lost
            assert loose.max_energy <= tight.max_energy + 1e-9
            checked += 1
    assert checked >= 3


def test_hop_relaxation_never_hurts():
    rng = np.random.default_rng(32)
    for _ in range(15):
        n = int(rng.integers(3, 6))
        net = random_net(rng, n)
        req_small = Request(0, n - 1, float(rng.uniform(0.5, 3.0)), 1)
        req_big = Request(0, n - 1, req_small.demand, int(rng.integers(2, 5)))
        led = EnergyLedger.empty(n)
        tight = solve_single_request(net, req_small, led, None)
        loose = solve_single_request(net, req_big, led, None)
        assert not loose.lost  # the generator keeps every pair in power range
        if not tight.lost:
            assert loose.max_energy <= tight.max_energy + 1e-9


# -- agreement with the exhaustive oracle ------------------------------------


def test_small_instances_match_bruteforce():
    rng = np.random.default_rng(33)
    routed = 0
    for _ in range(12):
        n = int(rng.integers(2, 6))
        box = float(rng.uniform(4.0, 10.0))
        net = random_net(rng, n, box=box, max_power=float(rng.uniform(0.3, 2.0) * box**2))
        s, d = (int(v) for v in rng.choice(n, size=2, replace=False))
        req = Request(s, d, float(rng.uniform(0.5, 3.0)), int(rng.integers(1, 4)))
        led = EnergyLedger(rng.uniform(0.0, 20.0, size=n))
        threshold = None if rng.random() < 0.5 else float(rng.uniform(5.0, 60.0))
        sol = solve_single_request(net, req, led, threshold)
        expect = single_request_bruteforce(net, req, led, threshold)
        if expect is None:
            assert sol.lost
        else:
            assert not sol.lost
            assert sol.max_energy == pytest.approx(expect[0], abs=1e-6)
            routed += 1
    assert routed >= 4


def test_thresholded_runs_match_simple_path_bruteforce():
    # every request of seeded 7-node runs with hop bound 4, against the
    # ledger its predecessors left: a model that admitted a route plus a
    # cycle could let the cycle's energy carry a cheaper path, or any path at
    # all, past the fairness row where that path alone fails it; without a
    # threshold (None) every request runs against the cap bound alone
    from qostopo import ScenarioParams, generate_scenario

    compared = routed = 0
    for threshold in (None, 2e3, 5e3, 1e4, 2e4):
        for seed in range(8):
            p = ScenarioParams(node_count=7, region=(100.0, 100.0), path_loss_exponent=2.0, max_power=20000.0,
                               bandwidth=60.0, request_rate=1.0, mean_demand=10.0, hop_bound=4,
                               threshold=threshold, seed=seed)
            net, reqs = generate_scenario(p)
            led = EnergyLedger.empty(p.node_count)
            for req in reqs:
                sol = solve_single_request(net, req, led, threshold)
                expect = simple_path_bruteforce(net, req, led, threshold)
                assert sol.lost == (expect is None), (threshold, seed, req)
                if expect is not None:
                    assert sol.max_energy == pytest.approx(expect[0], rel=1e-9), (threshold, seed, req)
                    led.charge(sol.node_energy)
                    routed += 1
                compared += 1
    assert routed >= 80 and compared >= 200


# -- solver budgets -----------------------------------------------------------


# Four nodes 1 apart on a line: 0 -> 3 over every node costs 1, below every
# one- or two-hop route (4 or more), so the cap bound is not attained and
# the admission goes to the solver.
LINE4 = line(4)
LINE4_REQUEST = Request(0, 3, 1.0, 3)


def test_resource_limited_loss_is_flagged(monkeypatch):
    def fake_solve(model, limits=None):
        return Solution(Status.RESOURCE_LIMIT)

    monkeypatch.setattr(formulation, "solve", fake_solve)
    sol = solve_single_request(LINE4, LINE4_REQUEST, EnergyLedger.empty(4), None)
    assert sol.lost and sol.resource_limited


def test_unbounded_status_is_an_internal_error(monkeypatch):
    def fake_solve(model, limits=None):
        return Solution(Status.UNBOUNDED)

    monkeypatch.setattr(formulation, "solve", fake_solve)
    with pytest.raises(ValidationError):
        solve_single_request(LINE4, LINE4_REQUEST, EnergyLedger.empty(4), None)


def _infeasible_milps(monkeypatch):
    """A stand-in for HiGHS that calls every MILP infeasible and solves LPs;
    returns the list of MILP runs it answered."""
    import qostopo.milp

    real, answered = qostopo.milp._highs, []

    def infeasible(cost, bounds, matrix, row_bounds, integrality, options, basis):
        if integrality is None:
            return real(cost, bounds, matrix, row_bounds, integrality, options, basis)
        answered.append(cost.size)
        return qostopo.milp.highs.HighsModelStatus.kInfeasible, [], math.inf, 0

    monkeypatch.setattr(qostopo.milp, "_highs", infeasible)
    return answered


def test_infeasible_verdict_against_a_route_with_margin_is_not_a_loss(monkeypatch):
    # LINE4's route list holds 0 -> 3 over every node (cap 1) and dearer
    # ones, each passing with margin; a HiGHS that calls the cap model
    # infeasible contradicts it, and the list's first route is committed
    ledger = EnergyLedger.empty(4)
    want = solve_single_request(LINE4, LINE4_REQUEST, ledger, None)
    answered = _infeasible_milps(monkeypatch)
    got = solve_single_request(LINE4, LINE4_REQUEST, ledger, None)
    assert answered and got.routes == want.routes == [[0, 1, 2, 3]]
    assert (got.max_energy, got.node_energy.tolist(), got.links) == (want.max_energy, want.node_energy.tolist(),
                                                                       want.links)
    # with no route on the list passing with margin, the verdict stands
    passes = formulation._RouteSearch.passes
    monkeypatch.setattr(formulation._RouteSearch, "passes", lambda search, path, cap, sign: (
        sign > 0 and passes(search, path, cap, sign)))
    assert solve_single_request(LINE4, LINE4_REQUEST, ledger, None).lost


def test_infeasible_verdict_with_a_slack_only_first_route_raises(monkeypatch):
    # the five-node field of the slack-only first route: its list holds
    # routes that pass with margin, so an infeasible verdict is wrong, but the
    # first route by cap passes only with slack and cannot be committed
    net, req, ledger, threshold = _slack_only_first_route_field()
    _infeasible_milps(monkeypatch)
    with pytest.raises(SolverError, match="infeasible"):
        solve_single_request(net, req, ledger, threshold)


def test_milp_runs_never_get_a_starting_basis(monkeypatch):
    # only the load LP hands HiGHS a basis: admissions on seeded admit8
    # runs, some settled by HiGHS, pass none
    import qostopo.milp
    from qostopo import ScenarioParams, run

    real, seen = qostopo.milp._highs, []

    def watched(cost, bounds, matrix, row_bounds, integrality, options, basis):
        seen.append((integrality is not None, basis is None))
        return real(cost, bounds, matrix, row_bounds, integrality, options, basis)

    monkeypatch.setattr(qostopo.milp, "_highs", watched)
    for seed in range(9_600_000, 9_600_004):
        run(ScenarioParams(**_FIELD8, threshold=None, seed=seed))
    solve_single_request(LINE4, LINE4_REQUEST, EnergyLedger.empty(4), None)
    assert len(seen) >= 4 and set(seen) == {(True, True)}
    solve_load_lp(LINE4, [LINE4_REQUEST])
    assert seen[-1] == (False, False)


def test_least_energy_solve_reports_budget_stops_and_odd_statuses(monkeypatch):
    # with the tie search cut to one visit, LINE4's ties go to the second,
    # least-energy solve: a budget stop there is a resource-limited loss, and
    # any other status but optimal an internal error
    def energy_solve_ends(status):
        def fake_solve(model, limits=None):
            return solve(model, limits) if model.objective == {0: 1.0} else Solution(status)
        return fake_solve

    monkeypatch.setattr(formulation, "_TIE_VISITS", 1)
    monkeypatch.setattr(formulation, "solve", energy_solve_ends(Status.RESOURCE_LIMIT))
    sol = solve_single_request(LINE4, LINE4_REQUEST, EnergyLedger.empty(4), None)
    assert sol.lost and sol.resource_limited
    for status in (Status.INFEASIBLE, Status.UNBOUNDED):
        monkeypatch.setattr(formulation, "solve", energy_solve_ends(status))
        with pytest.raises(ValidationError, match="least-energy model"):
            solve_single_request(LINE4, LINE4_REQUEST, EnergyLedger.empty(4), None)


# -- admissions settled by the route search -----------------------------------

# The benchmark geometries: 8 nodes in 100 x 100 m (admit8, and fair8 with a
# threshold) and 15 nodes in 180 x 180 m (field15), both with hop bound 3.
_FIELD8 = dict(node_count=8, region=(100.0, 100.0), path_loss_exponent=2.0, max_power=20000.0, bandwidth=60.0,
               request_rate=1.0, mean_demand=10.0, hop_bound=3)
_FIELD15 = dict(node_count=15, region=(180.0, 180.0), path_loss_exponent=2.0, max_power=65000.0, bandwidth=200.0,
                request_rate=1.0, mean_demand=10.0, hop_bound=3)


def _by_milp(net, req, ledger, threshold):
    """The admission through the public MILP path, or None when lost."""
    sol = solve(build_topology_milp(net, [req], ledger, threshold))
    if sol.status is Status.INFEASIBLE:
        return None
    return decode_and_validate(net, [req], ledger, threshold, sol)


def _assert_same_admission(got, net, req, ledger, threshold, where):
    """``got`` has the status and cap of build + solve + decode, and the
    cap, route, node energy and links of the simple-path oracle, which
    orders equal-cap routes independently of the route search (the decoder
    applies that search's order too)."""
    want = _by_milp(net, req, ledger, threshold)
    expect = simple_path_bruteforce(net, req, ledger, threshold)
    if want is None:
        assert expect is None, where
        assert got.lost and not got.resource_limited and got.links == set(), where
        assert np.array_equal(got.node_energy, np.zeros(got.node_energy.size)), where
        return
    assert not got.lost and got.max_energy == want.max_energy, where
    assert got.max_energy == expect[0], where
    path = expect[1]
    energy = np.zeros(net.node_count)
    for i, j in zip(path, path[1:]):
        energy[i] += req.demand * net.energy_matrix[i, j]
    assert got.routes == [path] and np.array_equal(got.node_energy, energy), where
    assert got.links == net.broadcast_closure(set(zip(path, path[1:]))), where


def _counting_solves(monkeypatch):
    solves = []

    def counted(model, limits=None):
        solves.append(model)
        return solve(model, limits)

    monkeypatch.setattr(formulation, "solve", counted)
    return solves


def test_route_search_admits_as_the_milp(monkeypatch):
    # every request of seeded sequential runs, with the ledger the admissions
    # leave, admitted by solve_single_request: the status and cap of build +
    # solve + decode, and the oracle's cap, route, node energy and links,
    # whether the route search settles the request or HiGHS does; field15
    # runs four seeds so that more than a tenth of the admissions reach HiGHS
    from qostopo import ScenarioParams, generate_scenario

    solves = _counting_solves(monkeypatch)
    cases = [(_FIELD8, threshold, hops, seed) for threshold in (None, 0, 5e2, 2e3, 2e4, 2e5)
             for hops in (1, 2, 3, 4) for seed in range(2)]
    cases += [(_FIELD15, threshold, 3, seed) for threshold in (None, 2e3, 2e5) for seed in range(4)]
    settled = compared = 0
    for field, threshold, hops, seed in cases:
        net, reqs = generate_scenario(ScenarioParams(**dict(field, hop_bound=hops), threshold=threshold,
                                                     seed=9_500_000 + seed))
        ledger = EnergyLedger.empty(net.node_count)
        for req in reqs:
            before = len(solves)
            got = solve_single_request(net, req, ledger, threshold)
            settled += len(solves) == before
            _assert_same_admission(got, net, req, ledger, threshold, (threshold, hops, seed, req))
            if not got.lost:
                ledger.charge(got.node_energy)
            compared += 1
    assert compared >= 400 and 0.2 * compared < settled < 0.9 * compared


_EDGE_VARIANTS = ["isolated", "starved", "overdemand"]


def _edge_fields(variant):
    """60 (network, request, ledger, threshold) cases of one edge variant:
    an endpoint out of every node's reach, a bandwidth that no relay can
    carry, a demand above the bandwidth; on random fields of 3 to 9 nodes,
    with hop bounds 1 to 4 and non-empty ledgers."""
    rng = np.random.default_rng({"isolated": 41, "starved": 42, "overdemand": 43}[variant])
    for case in range(60):
        n = int(rng.integers(3, 10))
        positions = rng.uniform(0.0, 100.0, size=(n, 2))
        demand = float(rng.uniform(5.0, 15.0))
        bandwidth = {"isolated": 60.0, "starved": 1.5 * demand, "overdemand": 0.9 * demand}[variant]
        s, d = (int(v) for v in rng.choice(n, size=2, replace=False))
        if variant == "isolated":
            positions[rng.choice([s, d])] = [1e3, 1e3]
        net = NetworkModel(positions, max_power=20000.0, bandwidth=bandwidth)
        ledger = EnergyLedger(rng.uniform(0.0, 5e3, size=n))
        yield net, Request(s, d, demand, int(rng.integers(1, 5))), ledger, [None, 0.0, 2e3, 2e5][case % 4]


@pytest.mark.parametrize("variant", _EDGE_VARIANTS)
def test_route_search_admits_as_the_milp_on_edge_fields(variant, monkeypatch):
    # _edge_fields: every admission is settled without HiGHS, as the MILP
    # and the oracle admit it, and lost where no route can exist
    solves = _counting_solves(monkeypatch)
    settled = 0
    for case, (net, req, ledger, threshold) in enumerate(_edge_fields(variant)):
        before = len(solves)
        got = solve_single_request(net, req, ledger, threshold)
        settled += len(solves) == before
        _assert_same_admission(got, net, req, ledger, threshold, (case, threshold, req))
        if variant == "isolated" or variant == "overdemand":
            assert got.lost
    assert settled == 60


def test_route_search_counts_the_oracle_routes():
    # the routes the search finds are the oracle's feasible simple paths
    # over the model's open arcs (no arc dearer than the cap bound)
    from oracles import _feasible_paths

    rng = np.random.default_rng(44)
    seen = set()
    for _ in range(150):
        n = int(rng.integers(3, 8))
        net = random_net(rng, n, bandwidth=float(rng.uniform(5.0, 40.0)))
        s, d = (int(v) for v in rng.choice(n, size=2, replace=False))
        req = Request(s, d, float(rng.uniform(1.0, 10.0)), int(rng.integers(1, 5)))
        ledger = EnergyLedger(rng.uniform(0.0, 50.0, size=n))
        threshold = None if rng.random() < 0.4 else float(rng.uniform(0.0, 80.0))
        search = formulation._RouteSearch(net, req, ledger, threshold)
        bound = search.cap_bound()
        found = search.feasible_routes(bound)
        energy = net.energy_matrix
        paths = [(path, float(need.max())) for need, path in _feasible_paths(net, req, ledger, threshold)]
        oracle = [path for path, _ in paths if all(energy[i, j] <= bound for i, j in zip(path, path[1:]))]
        assert [route for route, _ in found] == oracle
        seen.add(min(len(oracle), 2))
        # each with its cap, and over every arc within max_power too
        assert found == [(path, cap) for path, cap in paths if path in oracle]
        wide = search.feasible_routes(net.max_power, 10**6)
        assert wide == [(path, cap) for path, cap in paths
                        if all(energy[i, j] <= net.max_power for i, j in zip(path, path[1:]))]
    assert seen == {0, 1, 2}


def _near_fairness_bound_cases():
    """40 (network, request, ledger, threshold, path, sign) cases on random
    fields of 3 to 8 nodes: the route ``path``'s fullest node sits up to
    1e-12 of the row's scale (either side) from its fairness bound with
    slack (sign +1, even cases) or with margin (-1, odd cases)."""
    from oracles import simple_paths
    from qostopo.milp import FEASIBILITY_TOL

    rng = np.random.default_rng(48)
    for case in range(40):
        n = int(rng.integers(3, 9))
        net = random_net(rng, n)
        s, d = (int(v) for v in rng.choice(n, size=2, replace=False))
        req = Request(s, d, float(rng.uniform(1.0, 10.0)), int(rng.integers(1, 5)))
        ledger = EnergyLedger(rng.uniform(0.0, 500.0, size=n))
        paths = simple_paths(n, s, d, req.hop_bound)
        path = paths[int(rng.integers(len(paths)))]
        combined = ledger.consumed.copy()
        for i, j in zip(path, path[1:]):
            combined[i] += req.demand * net.energy_matrix[i, j]
        sign = 1.0 if case % 2 == 0 else -1.0
        scale = max(1.0, float(combined.max()))
        off = 1.0 + rng.uniform(-1e-5, 1e-5)
        threshold = float(combined.max() - combined.mean() - sign * FEASIBILITY_TOL * scale * off)
        yield net, req, ledger, threshold, path, sign


def test_route_walk_reads_every_row_as_the_judge():
    # the cap bound is the judge's, and the walk lists exactly the open
    # paths the judge passes with slack, each with the judge's cap, total
    # energy and margin verdict: on random fields of 3 to 15 nodes with hop
    # bounds 1-4, random ledgers and no, a tight or a loose threshold; on the
    # cap-bound, edge and slack-only fields; and on ledgers placed within
    # 1e-12 of a route's fairness bound
    from oracles import simple_paths
    from qostopo.milp import FEASIBILITY_TOL

    def check(net, req, ledger, threshold):
        search = formulation._RouteSearch(net, req, ledger, threshold)
        judge = search.problems
        energy, s, d = net.energy_matrix, req.sender, req.receiver
        short = [[s, d]] + [[s, v, d] for v in range(net.node_count) if v not in (s, d)]
        margin = [judge(list(zip(p, p[1:])), -1.0) for p in short]
        bound = search.cap_bound()
        assert bound == min([cap for cap, _, problems in margin if not problems], default=net.max_power)
        listed = 0
        for cap_bound in (bound, net.max_power):
            expect = []
            for path in simple_paths(net.node_count, s, d, req.hop_bound):
                arcs = list(zip(path, path[1:]))
                if all(energy[i, j] <= cap_bound for i, j in arcs):
                    cap, increments, problems = judge(arcs, 1.0)
                    if not problems:
                        expect.append((path, cap, sum(increments), not judge(arcs, -1.0)[2]))
            walked = search.feasible_routes(cap_bound, 10**6)
            assert [(path, cap, sum(search.increments(path)), search.passes(path, cap, -1.0))
                    for path, cap in walked] == expect
            listed += len(expect)
            # the walk spends one visit on each path it extends or completes
            visits = walk_visits(net, req, cap_bound, [s])
            assert search.feasible_routes(cap_bound, visits) is not None
            assert visits == 0 or search.feasible_routes(cap_bound, visits - 1) is None
        return listed

    def walk_visits(net, req, bound, path):
        # every open arc out of the sender counts; a path of H nodes past it
        # goes on only into the receiver; a relay counts only when bandwidth
        # carries twice the demand, and nothing when it does not carry one
        room = net.bandwidth + FEASIBILITY_TOL * max(1.0, net.bandwidth)
        relays, count = req.demand + req.demand <= room, 0
        if req.demand > room:
            return 0
        for j in range(net.node_count):
            if (j in path or j == req.sender or net.energy_matrix[path[-1], j] > bound
                    or (j != req.receiver and (not relays or 1 < len(path) == req.hop_bound))):
                continue
            count += 1
            if j != req.receiver and len(path) < req.hop_bound:
                count += walk_visits(net, req, bound, path + [j])
        return count

    rng = np.random.default_rng(46)
    listed = 0
    for case in range(120):
        n = int(rng.integers(3, 16))
        net = random_net(rng, n, bandwidth=float(rng.uniform(5.0, 100.0)))
        s, d = (int(v) for v in rng.choice(n, size=2, replace=False))
        req = Request(s, d, float(rng.uniform(1.0, 10.0)), int(rng.integers(1, 5 if n < 12 else 4)))
        ledger = EnergyLedger(rng.uniform(0.0, 500.0, size=n))
        threshold = [None, float(rng.uniform(0.0, 80.0)), float(rng.uniform(500.0, 5e3))][case % 3]
        listed += check(net, req, ledger, threshold)
    fields = [(net, req, EnergyLedger.empty(net.node_count), threshold)
              for net, req, threshold, _ in _CAP_BOUND_FIELDS]
    fields += [case for variant in _EDGE_VARIANTS for case in _edge_fields(variant)]
    fields.append(_slack_only_first_route_field())
    fields += [case[:4] for case in _near_fairness_bound_cases()]
    for field in fields:
        listed += check(*field)
    assert listed > 1000


def _exact_fairness_excess(net, req, ledger, threshold, path, sign):
    """The excess of the route ``path``'s fullest node over its fairness
    row with slack or margin, in exact rational arithmetic on the inputs'
    floats, and the row's scale max(1, |threshold|, fullest)."""
    from fractions import Fraction
    from qostopo.milp import FEASIBILITY_TOL

    combined = [Fraction(c) for c in ledger.consumed.tolist()]
    for i, j in zip(path, path[1:]):
        combined[i] += Fraction(req.demand) * Fraction(float(net.energy_matrix[i, j]))
    most, threshold = max(combined), Fraction(threshold)
    scale = max(1, abs(threshold), most)
    limit = sum(combined) / len(combined) + threshold + sign * Fraction(FEASIBILITY_TOL) * scale
    return most - limit, scale


def test_walk_and_judge_read_fairness_alike_at_the_band_edge():
    # _near_fairness_bound_cases with slack and with margin, at their own
    # threshold, at the band edge (the least threshold at which the walk
    # passes the route) and one ulp either side, and 2e-12 of the row's
    # scale either side of the edge: the walk (fair, passes) and the judge
    # (problems, on the arcs in path order, reversed and shuffled) give
    # one verdict, and wherever the exact excess over the row is more than
    # 1e-12 of its scale, so does exact arithmetic
    import random

    shuffle = random.Random(49).shuffle
    readings = exact = 0
    for net, req, ledger, threshold, path, _ in _near_fairness_bound_cases():
        arcs = list(zip(path, path[1:]))
        cap = max(float(net.energy_matrix[i, j]) for i, j in arcs)
        for sign in (1.0, -1.0):
            def fair(t):
                return formulation._RouteSearch(net, req, ledger, t).fair(path, sign)

            # bisect between thresholds 1e-9 of the scale either side of the
            # exact edge down to two adjacent floats
            excess, scale = _exact_fairness_excess(net, req, ledger, threshold, path, sign)
            low, edge = (float(threshold + excess + side * 1e-9 * scale) for side in (-1, 1))
            assert not fair(low) and fair(edge), (req, sign)
            while math.nextafter(low, math.inf) < edge:
                mid = low + (edge - low) / 2
                low, edge = (low, mid) if fair(mid) else (mid, edge)
            band = 2e-12 * float(scale)
            for t in (threshold, math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf),
                      edge - band, edge + band):
                search = formulation._RouteSearch(net, req, ledger, t)
                verdict = search.fair(path, sign)
                assert search.passes(path, cap, sign) == verdict
                mixed = list(arcs)
                shuffle(mixed)
                first = search.problems(arcs, sign)
                assert (not first[2]) == verdict
                for order in (arcs[::-1], mixed):
                    assert search.problems(order, sign) == first
                excess, scale = _exact_fairness_excess(net, req, ledger, t, path, sign)
                if abs(excess) > 1e-12 * scale:
                    assert verdict == (excess <= 0), (req, sign, t)
                    exact += 1
                readings += 1
    # exact arithmetic reads the other sign at the own threshold and the
    # thresholds 2e-12 of the scale from the edge
    assert readings == 40 * 2 * 6 and exact == 40 + 40 * 2 * 2


def test_same_admissions_reach_highs(monkeypatch):
    # seeded _FIELD8 runs with hop bounds 3 and 4, with no threshold and at
    # 2e3: the cap and least-energy solves that the route search leaves to
    # HiGHS, pinned so that a change in how the search judges a route cannot
    # move an admission between the search and HiGHS unseen
    from qostopo import ScenarioParams, generate_scenario

    solves = _counting_solves(monkeypatch)
    counts = {}
    for threshold, seeds in ((None, 30), (2e3, 200)):
        for hops in (3, 4):
            solves.clear()
            for seed in range(seeds):
                net, reqs = generate_scenario(ScenarioParams(**dict(_FIELD8, hop_bound=hops), threshold=threshold,
                                                             seed=9_800_000 + seed))
                ledger = EnergyLedger.empty(net.node_count)
                for req in reqs:
                    sol = solve_single_request(net, req, ledger, threshold)
                    if not sol.lost:
                        ledger.charge(sol.node_energy)
            energy_solves = sum(len(model.objective) > 1 for model in solves)
            counts[threshold, hops] = (len(solves) - energy_solves, energy_solves)
    assert counts == {(None, 3): (93, 0), (None, 4): (98, 0), (2e3, 3): (3, 0), (2e3, 4): (5, 0)}


def test_models_sent_to_highs_have_pinned_sizes(monkeypatch):
    # every model solve_single_request hands HiGHS over sequential runs of
    # perfbench's admit8 scenarios 9000-9099: their count and their summed
    # rows, nonzeros and binaries, pinned so that model size is read on a
    # fixed set of admissions
    from qostopo import ScenarioParams, generate_scenario

    solves = _counting_solves(monkeypatch)
    for seed in range(9000, 9100):
        net, reqs = generate_scenario(ScenarioParams(**_FIELD8, threshold=None, seed=seed))
        ledger = EnergyLedger.empty(net.node_count)
        for req in reqs:
            sol = solve_single_request(net, req, ledger, None)
            if not sol.lost:
                ledger.charge(sol.node_energy)
    sizes = (len(solves), sum(model.num_constraints for model in solves),
             sum(len(row.coefficients) for model in solves for row in model.constraints),
             sum(len(model.binary_ids) for model in solves))
    assert sizes == (310, 12_511, 50_037, 6_118)


def test_single_route_with_only_slack_goes_to_the_solver(monkeypatch):
    # the relay carries twice the demand, 5e-8 of the bandwidth over it: the
    # judge's slack passes the one route, its margin does not, so the search
    # may not settle it. The model takes the judge's slack verdict on
    # bandwidth, so HiGHS's cap solve finds the route; as it still fails the
    # margin, the least-energy solve commits it, as build + solve + decode do
    solves = _counting_solves(monkeypatch)
    net = line(3, max_power=2.0, bandwidth=50.0)
    req = Request(0, 2, 25.0 * (1.0 + 5e-8), 2)
    ledger = EnergyLedger.empty(3)
    search = formulation._RouteSearch(net, req, ledger, None)
    assert [route for route, _ in search.feasible_routes(search.cap_bound())] == [[0, 1, 2]]
    got = solve_single_request(net, req, ledger, None)
    assert [len(model.objective) > 1 for model in solves] == [False, True]
    want = _by_milp(net, req, ledger, None)
    assert got.routes == want.routes == [[0, 1, 2]] and got.max_energy == want.max_energy == 1.0
    assert np.array_equal(got.node_energy, want.node_energy) and got.links == want.links


def test_spent_search_budget_goes_to_the_solver(monkeypatch):
    # with the budget cut to one visit, every admission whose search gets
    # that far reaches HiGHS, with the same answers as the full search
    from qostopo import ScenarioParams, generate_scenario

    runs = []
    for visits in (formulation._ROUTE_SEARCH_VISITS, 1):
        monkeypatch.setattr(formulation, "_ROUTE_SEARCH_VISITS", visits)
        solves = _counting_solves(monkeypatch)
        answers = []
        for threshold in (None, 2e3):
            for seed in range(3):
                net, reqs = generate_scenario(ScenarioParams(**_FIELD8, threshold=threshold, seed=9_600_000 + seed))
                ledger = EnergyLedger.empty(net.node_count)
                for req in reqs:
                    sol = solve_single_request(net, req, ledger, threshold)
                    answers.append((sol.routes, sol.max_energy, sol.node_energy.tolist(), sorted(sol.links)))
                    if not sol.lost:
                        ledger.charge(sol.node_energy)
        runs.append((answers, len(solves)))
    (full, full_solves), (cut, cut_solves) = runs
    assert cut == full and full_solves < cut_solves <= len(cut)


def test_search_budget_covers_field15():
    # 15 nodes with every arc open and hop bound 3: a threshold no route
    # meets makes the search visit every path, 339 of them, within budget
    net = NetworkModel(np.random.default_rng(45).uniform(0.0, 180.0, size=(15, 2)), max_power=1e6, bandwidth=200.0)
    req = Request(0, 1, 10.0, 3)
    ledger = EnergyLedger.empty(15)
    search = formulation._RouteSearch(net, req, ledger, -1.0)
    assert search.cap_bound() == net.max_power
    assert search.feasible_routes(net.max_power) == []
    assert formulation._ROUTE_SEARCH_VISITS >= 339
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formulation, "_ROUTE_SEARCH_VISITS", 338)
        assert search.feasible_routes(net.max_power) is None


def test_equal_cap_routes_are_ordered_by_energy_then_hops_then_nodes():
    # corners of a unit square: 0 -> 2 round either side has cap 1 and total
    # energy 2, so the node sequence picks [0, 1, 2]; on a line 0 (0), 3
    # (0.5), 1 (1), 2 (2), the route 0 -> 3 -> 1 -> 2 has the cap of 0 -> 1
    # -> 2 (1) at less energy (1.5 against 2), so it wins despite its extra
    # hop; the direct arcs cost 2 and 4. The decoder turns a solver's other
    # route at that cap into the same one.
    square = NetworkModel([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], max_power=10.0, bandwidth=50.0)
    detour = NetworkModel([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.5, 0.0]], max_power=10.0, bandwidth=50.0)
    for net, best, other in ((square, [0, 1, 2], [0, 3, 2]), (detour, [0, 3, 1, 2], [0, 1, 2])):
        req, ledger = Request(0, 2, 1.0, 3), EnergyLedger.empty(4)
        got = solve_single_request(net, req, ledger, None)
        assert got.routes == [best] and got.max_energy == 1.0
        assert simple_path_bruteforce(net, req, ledger, None) == (1.0, best)
        _assert_same_admission(got, net, req, ledger, None, best)
        raw = _relay_layout(net, set(zip(other, other[1:])), 1.0)
        assert decode_and_validate(net, [req], ledger, None, raw).routes == [best]


def _slack_only_first_route_field():
    """0 -> 2 with energies in units of 4e4: direct, 1 (the cap bound); over
    node 1, 1 - 5e-8, the first route and within the judge's tolerance of
    the bound, but a ledger and threshold put node 1 half that tolerance
    over its fairness row, so it passes only with slack and HiGHS refuses
    it; over nodes 3 and 4, 1 - 2.5e-8 at more energy than the direct arc.
    Returns the network, request, ledger and threshold."""
    from qostopo.milp import FEASIBILITY_TOL

    a = np.sqrt(1.0 - 2.5e-8)
    net = NetworkModel([[0.0, 0.0], [100.0, 100.0 * np.sqrt(3.0 - 2e-7)], [200.0, 0.0],
                        [100.0 * (1.0 - a), -10.0], [100.0 * (1.0 + a), -10.0]], max_power=1e5, bandwidth=50.0)
    energy = net.energy_matrix
    ledger = EnergyLedger(np.array([0.0, 1e6, 0.0, 0.0, 0.0]))
    combined = ledger.consumed + [energy[0, 1], energy[1, 2], 0.0, 0.0, 0.0]
    threshold = combined[1] - combined.mean() - 0.5 * FEASIBILITY_TOL * combined.max()
    return net, Request(0, 2, 1.0, 3), ledger, threshold


def test_attained_bound_with_a_slack_only_first_route_solves_for_the_cap_first(monkeypatch):
    # _slack_only_first_route_field: the optimum is the 3-hop route over
    # nodes 3 and 4; HiGHS's cap solve finds its cap before the least-energy
    # solve picks among the routes at it.
    from qostopo.milp import FEASIBILITY_TOL

    solves = _counting_solves(monkeypatch)
    net, req, ledger, threshold = _slack_only_first_route_field()
    energy = net.energy_matrix
    search = formulation._RouteSearch(net, req, ledger, threshold)
    bound = search.cap_bound()
    routes = search.feasible_routes(bound)
    assert bound == energy[0, 2] and [route for route, _ in routes] == [[0, 1, 2], [0, 2], [0, 3, 4, 2]]
    assert min(cap for _, cap in routes) > bound - FEASIBILITY_TOL * bound
    got = solve_single_request(net, req, ledger, threshold)
    assert got.routes == [[0, 3, 4, 2]] and got.max_energy == energy[3, 4] < bound
    assert [model.variables[0].upper for model in solves] == [bound, got.max_energy]
    _assert_same_admission(got, net, req, ledger, threshold, req)


def test_ties_go_to_the_least_energy_route_on_seeded_runs(monkeypatch):
    # seeded sequential runs on 5 to 15 nodes (field15's geometry), hop bounds
    # 1-4 (1-3 on 15 nodes, where HiGHS takes ~70 ms an admission at 4),
    # with no threshold and at 2e3: every admission has the status and cap
    # of build + solve + decode and the oracle's route; with _TIE_VISITS cut
    # to 1 the ties of the admissions that reach HiGHS go to the second,
    # least-energy solve instead, with the same answers
    from qostopo import ScenarioParams, generate_scenario

    cases = [(n, hops, threshold) for n, top in ((5, 4), (9, 4), (15, 3)) for hops in range(1, top + 1)
             for threshold in (None, 2e3)]
    runs = []
    for tie_visits in (formulation._TIE_VISITS, 1):
        monkeypatch.setattr(formulation, "_TIE_VISITS", tie_visits)
        solves = _counting_solves(monkeypatch)
        answers = []
        for n, hops, threshold in cases:
            net, reqs = generate_scenario(ScenarioParams(**dict(_FIELD15, node_count=n, hop_bound=hops),
                                                         threshold=threshold, seed=9_700_000 + n))
            ledger = EnergyLedger.empty(n)
            for req in reqs:
                got = solve_single_request(net, req, ledger, threshold)
                if tie_visits > 1:
                    _assert_same_admission(got, net, req, ledger, threshold, (n, hops, threshold, req))
                answers.append((got.routes, got.max_energy, got.node_energy.tolist(), sorted(got.links)))
                if not got.lost:
                    ledger.charge(got.node_energy)
        runs.append((answers, [len(model.objective) > 1 for model in solves]))
    (full, full_energy_solves), (cut, cut_energy_solves) = runs
    assert cut == full and len(full) >= 150
    assert not any(full_energy_solves) and sum(cut_energy_solves) >= 15


def test_wrong_highs_optimum_is_solved_again():
    # admit8 scenario 17001766, request 2 (1 -> 3, demand 13): HiGHS calls
    # the model optimal at the cap bound 4287.27 with a route whose costliest
    # arc is 3991.32; solved again under that cap it reaches the optimum
    from qostopo import ScenarioParams, generate_scenario, run

    params = ScenarioParams(**_FIELD8, threshold=None, seed=17_001_766)
    net, reqs = generate_scenario(params)
    ledger = EnergyLedger.empty(net.node_count)
    ledger.charge(solve_single_request(net, reqs[0], ledger, None).node_energy)
    expect = simple_path_bruteforce(net, reqs[1], ledger, None)
    assert expect[1] == [1, 5, 6, 3] and expect[0] == pytest.approx(3759.3986800115554, rel=1e-12)
    row = run(params).request_table[1]
    assert (row.path, row.max_energy) == (expect[1], expect[0])


def test_cap_above_the_route_is_solved_again_under_the_route_cap(monkeypatch):
    # a solver whose cap sits above its route's costliest arc on the first
    # `wrong` solves: the model is built again under the route's cap, and
    # after three such solves the admission gives up; arcs that are not a
    # sound route are reported as the decoder reports them
    bounds = []

    def inflated(model, limits=None):
        bounds.append(model.variables[0].upper)
        sol = solve(model, limits)
        if len(bounds) > wrong:
            return sol
        values = sol.values.copy()
        values[0] += 1.0
        return Solution(sol.status, values, sol.objective_value + 1.0, sol.mip_node_count)

    monkeypatch.setattr(formulation, "solve", inflated)
    req, ledger = LINE4_REQUEST, EnergyLedger.empty(4)
    wrong = 1
    got = solve_single_request(LINE4, req, ledger, None)
    _assert_same_admission(got, LINE4, req, ledger, None, req)
    assert bounds == [formulation._RouteSearch(LINE4, req, ledger, None).cap_bound(), got.max_energy]
    bounds.clear()
    wrong = 3
    with pytest.raises(SolverError, match="3 solves"):
        solve_single_request(LINE4, req, ledger, None)
    assert len(bounds) == 3

    # a cap above arcs that are no route at all is no bound to solve again under
    def broken(model, limits=None):
        bounds.append(model.variables[0].upper)
        values = np.zeros(model.num_variables)
        values[0], values[1 + formulation._ordered_pairs(4).index((0, 1))] = 5.0, 1.0
        return Solution(Status.OPTIMAL, values, 5.0, 0)

    bounds.clear()
    monkeypatch.setattr(formulation, "solve", broken)
    with pytest.raises(ValidationError, match="does not match the route arcs.*not one simple path"):
        solve_single_request(LINE4, req, ledger, None)
    assert len(bounds) == 1
