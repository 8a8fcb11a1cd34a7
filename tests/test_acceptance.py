"""Acceptance suite: one test per criterion, one PASS line each (run with -s).

1. solver exactness against exhaustive enumeration on >= 100 seeded MILPs
2. routing optimality against the power-level x path brute force on >= 50
   seeded single-request instances
3. every optimal solution from 1-2 passes the independent re-checks at 1e-7
4. load relaxation: sign-corrected conservation everywhere, pinned
   utilization values on the hand-computable instances
5. threshold monotonicity on >= 50 seeded triples, zero counterexamples
6. 15-node replication study: tighter thresholds never admit more
7. demand sweep: losses rise with the mean demand, none at the slack end
8. byte-identical reruns of the run and sweep commands
9. full-scale sequential run inside the time budget

Runtime budgets are asserted where the criterion pins one.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from oracles import enumerate_milp, single_request_bruteforce
from qostopo import (
    EnergyLedger,
    MilpModel,
    NetworkModel,
    Request,
    ScenarioParams,
    Status,
    build_topology_milp,
    check_solution,
    decode_and_validate,
    generate_scenario,
    load_scenario,
    run,
    solve,
    solve_load_lp,
    solve_single_request,
    sweep_threshold,
)
from qostopo.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# -- shared batches (criterion 3 re-checks what 1 and 2 solved) ---------------


def _random_milp(rng, pure_binary):
    m = MilpModel()
    if pure_binary:
        n_bin, n_cont = int(rng.integers(4, 13)), 0
    else:
        n_bin, n_cont = int(rng.integers(1, 8)), int(rng.integers(1, 7))
    xs = [m.add_binary() for _ in range(n_bin)]
    for _ in range(n_cont):
        lo = float(rng.uniform(-4.0, 1.0))
        xs.append(m.add_continuous(lower=lo, upper=lo + float(rng.uniform(0.5, 8.0))))
    for _ in range(int(rng.integers(2, 9))):
        size = int(rng.integers(1, len(xs) + 1))
        picks = rng.choice(len(xs), size=size, replace=False)
        # mostly packing-style rows so a healthy share of models is solvable
        u = rng.random()
        if u < 0.75:
            sense, rhs = "<=", float(rng.uniform(-1.0, 8.0))
        elif u < 0.95:
            sense, rhs = ">=", float(rng.uniform(-6.0, 2.0))
        else:
            sense, rhs = "=", float(rng.uniform(-2.0, 2.0))
        m.add_constraint(
            {xs[int(i)]: float(rng.uniform(-3.0, 3.0)) for i in picks}, sense, rhs
        )
    m.set_objective({x: float(rng.uniform(-3.0, 3.0)) for x in xs})
    return m


_MILP_BATCH = None


def milp_batch():
    """>= 100 seeded random models: (model, solution, enumerated optimum)."""
    global _MILP_BATCH
    if _MILP_BATCH is None:
        rng = np.random.default_rng(8121)
        entries = []
        start = time.perf_counter()
        for k in range(100):
            model = _random_milp(rng, pure_binary=k % 5 != 0)
            entries.append((model, solve(model), enumerate_milp(model)))
        _MILP_BATCH = (entries, time.perf_counter() - start)
    return _MILP_BATCH


def _random_routing_instance(rng):
    n = int(rng.integers(2, 7))
    box = float(rng.uniform(4.0, 12.0))
    positions = rng.uniform(0.0, box, size=(n, 2))
    max_power = float(rng.uniform(0.3, 2.2)) * box**2
    net = NetworkModel(positions, max_power=max_power, bandwidth=float(rng.uniform(2.0, 60.0)))
    s, d = (int(v) for v in rng.choice(n, size=2, replace=False))
    req = Request(s, d, float(rng.uniform(0.5, 4.0)), int(rng.integers(1, 5)))
    led = EnergyLedger(rng.uniform(0.0, 30.0, size=n) * (rng.random(n) < 0.6))
    if rng.random() < 0.5:
        threshold = None
    else:
        spread = float(led.consumed.max() - led.consumed.mean())
        threshold = float(rng.uniform(0.3, 2.5)) * max(spread, 3.0)
    return net, req, led, threshold


_ROUTING_BATCH = None


def routing_batch():
    """>= 50 seeded single-request instances with raw solver output kept."""
    global _ROUTING_BATCH
    if _ROUTING_BATCH is None:
        rng = np.random.default_rng(515)
        entries = []
        start = time.perf_counter()
        for _ in range(50):
            net, req, led, threshold = _random_routing_instance(rng)
            outcome = solve_single_request(net, req, led, threshold)
            model = build_topology_milp(net, [req], led, threshold)
            raw = solve(model)
            expected = single_request_bruteforce(net, req, led, threshold)
            entries.append((net, req, led, threshold, model, raw, outcome, expected))
        _ROUTING_BATCH = (entries, time.perf_counter() - start)
    return _ROUTING_BATCH


# -- criteria ------------------------------------------------------------------


def test_criterion_1_solver_matches_enumeration():
    entries, elapsed = milp_batch()
    assert len(entries) >= 100
    optima = 0
    for model, sol, best in entries:
        if sol.status is Status.INFEASIBLE:
            assert best is None
        else:
            assert sol.status is Status.OPTIMAL
            assert best is not None
            assert abs(sol.objective_value - best) <= 1e-6
            optima += 1
    assert optima >= 40  # enough solvable models for the comparison to mean something
    assert elapsed <= 60.0
    print(f"\nPASS criterion 1: {len(entries)} models match enumeration "
          f"({optima} optimal, {len(entries) - optima} infeasible) in {elapsed:.1f}s")


def test_criterion_2_routing_matches_bruteforce():
    entries, elapsed = routing_batch()
    assert len(entries) >= 50
    routed = 0
    for net, req, led, threshold, model, raw, outcome, expected in entries:
        if expected is None:
            assert outcome.lost
            assert raw.status is Status.INFEASIBLE
            continue
        best_energy, _ = expected
        assert not outcome.lost
        assert abs(outcome.max_energy - best_energy) <= 1e-6
        # the decoded path itself achieves that optimum
        path = outcome.routes[0]
        bottleneck = max(net.energy_matrix[i, j] for i, j in zip(path, path[1:]))
        assert abs(bottleneck - outcome.max_energy) <= 1e-6
        routed += 1
    assert routed >= 20
    assert elapsed <= 120.0
    print(f"PASS criterion 2: {len(entries)} instances match brute force "
          f"({routed} routed, {len(entries) - routed} lost) in {elapsed:.1f}s")


def test_criterion_3_independent_rechecks_pass():
    checked = 0
    for model, sol, _ in milp_batch()[0]:
        if sol.status is Status.OPTIMAL:
            assert check_solution(model, sol.values) == []
            checked += 1
    for net, req, led, threshold, model, raw, outcome, _ in routing_batch()[0]:
        if raw.status is Status.OPTIMAL:
            assert check_solution(model, raw.values) == []
            decode_and_validate(net, [req], led, threshold, raw)  # raises on any violation
            checked += 1
    assert checked >= 60
    print(f"PASS criterion 3: {checked} optimal solutions re-checked, zero violations")


def test_criterion_4_load_conservation_and_pinned_values():
    two = NetworkModel(np.array([[0.0, 0.0], [1.0, 0.0]]), max_power=10.0, bandwidth=10.0)
    assert solve_load_lp(two, [Request(0, 1, 4.0, 1)]).max_utilization == pytest.approx(0.8, abs=1e-9)
    three = NetworkModel(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), max_power=10.0, bandwidth=4.0)
    assert solve_load_lp(three, [Request(0, 2, 2.0, 3)]).max_utilization == pytest.approx(1.0, abs=1e-9)

    rng = np.random.default_rng(44)
    solved = 0
    for _ in range(20):
        n = int(rng.integers(2, 8))
        net = NetworkModel(
            rng.uniform(0.0, 25.0, size=(n, 2)),
            max_power=5000.0,
            bandwidth=float(rng.uniform(5.0, 80.0)),
        )
        demand = {}
        for _ in range(int(rng.integers(1, 5))):
            s, d = (int(v) for v in rng.integers(0, n, size=2))
            if s != d:
                key = (s, d)
                demand[key] = demand.get(key, 0.0) + float(rng.uniform(0.5, 6.0))
        if not demand:
            continue
        reqs = [Request(s, d, lam, 3) for (s, d), lam in demand.items()]
        res = solve_load_lp(net, reqs)
        for (s, d), lam in demand.items():
            grid = res.flows[(s, d)]
            for v in range(n):
                want = lam if v == s else -lam if v == d else 0.0
                assert abs((grid[v].sum() - grid[:, v].sum()) - want) <= 1e-7
        solved += 1
    assert solved >= 15
    print(f"PASS criterion 4: conservation exact on {solved} random load models, "
          f"pinned utilizations 0.8 and 1.0 reproduced")


def test_criterion_5_threshold_monotonicity():
    rng = np.random.default_rng(900)
    admitted_pairs = 0
    for _ in range(50):
        net, req, led, _ = _random_routing_instance(rng)
        spread = float(led.consumed.max() - led.consumed.mean())
        t_low = float(rng.uniform(0.0, 1.6)) * max(spread, 2.0)
        t_high = None if rng.random() < 0.2 else t_low + float(rng.uniform(0.5, 50.0))
        tight = solve_single_request(net, req, led, t_low)
        loose = solve_single_request(net, req, led, t_high)
        if not tight.lost:
            assert not loose.lost, "feasible instance became infeasible with more slack"
            assert loose.max_energy <= tight.max_energy + 1e-9
            admitted_pairs += 1
    assert admitted_pairs >= 10
    print(f"PASS criterion 5: 50 triples, zero monotonicity counterexamples "
          f"({admitted_pairs} feasible at the tight end)")


def _replication_params(threshold, seed):
    return ScenarioParams(
        node_count=15,
        region=(180.0, 180.0),
        path_loss_exponent=2.0,
        max_power=65000.0,
        bandwidth=200.0,
        request_rate=1.0,
        mean_demand=10.0,
        hop_bound=3,
        threshold=threshold,
        seed=seed,
    )


def test_criterion_6_threshold_replication_study():
    start = time.perf_counter()
    thresholds = (0.0, 3.0, 7.0)

    # per-solve relaxation along one fixed-seed sequential run: replay every
    # request against the evolving ledger at each threshold
    net, reqs = generate_scenario(_replication_params(0.0, seed=1))
    ledger = EnergyLedger.empty(net.node_count)
    for req in reqs:
        solutions = [solve_single_request(net, req, ledger.copy(), t) for t in thresholds]
        for tighter, looser in zip(solutions, solutions[1:]):
            if not tighter.lost:
                assert not looser.lost
                assert looser.max_energy <= tighter.max_energy + 1e-9
        base = solutions[0]
        if not base.lost:
            ledger.charge(base.node_energy)

    # replication means: more slack never loses more
    mean_lost = {}
    for t in (0.0, 7.0):
        losses = [run(_replication_params(t, seed)).lost_count for seed in range(20)]
        mean_lost[t] = float(np.mean(losses))
    assert mean_lost[7.0] <= mean_lost[0.0]
    elapsed = time.perf_counter() - start
    assert elapsed <= 600.0
    print(f"PASS criterion 6: mean lost {mean_lost[7.0]:.2f} at slack 7 <= "
          f"{mean_lost[0.0]:.2f} at slack 0 over 20 seeds ({elapsed:.0f}s)")


def test_criterion_7_demand_sweep_trend():
    start = time.perf_counter()
    grid = [1.0, 10.0, 30.0, 50.0, 80.0]
    params = ScenarioParams(
        node_count=8,
        region=(100.0, 100.0),
        path_loss_exponent=2.0,
        max_power=20000.0,
        bandwidth=60.0,
        request_rate=1.0,
        mean_demand=1.0,
        hop_bound=3,
        threshold=None,
        seed=0,
    )
    from qostopo import sweep_lambda

    result = sweep_lambda(params, grid, replications=20)
    lost_means = [p.lost_mean for p in result.points]
    assert [p.axis_value for p in result.points] == grid
    assert lost_means[0] == 0.0  # slack bandwidth at the low end: nothing lost
    assert lost_means[-1] > 0.0  # the grid really reaches saturation
    rho = spearmanr(grid, lost_means).statistic
    if np.isnan(rho):  # constant losses would make the rank correlation undefined
        rho = 0.0
    assert rho >= 0.0
    elapsed = time.perf_counter() - start
    assert elapsed <= 600.0
    print(f"PASS criterion 7: lost means {lost_means} over demand grid {grid}, "
          f"Spearman {rho:.3f} >= 0 ({elapsed:.0f}s)")


def test_criterion_8_byte_identical_reruns(tmp_path, capsys):
    scn = tmp_path / "random6.yaml"
    scn.write_text(
        "nodes: 6\nregion: [15, 15]\nmax_power: 1000\nbandwidth: 100\n"
        "hop_bound: 3\nrequest_rate: 1.5\nmean_demand: 2.0\nseed: 4\n"
    )
    run_outputs = []
    sweep_outputs = []
    for attempt in ("first", "second"):
        out = tmp_path / f"run_{attempt}"
        assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 0
        run_outputs.append(
            tuple(sorted((p.name, p.read_bytes()) for p in out.iterdir()))
        )
        out = tmp_path / f"sweep_{attempt}"
        assert main([
            "sweep", "--scenario", str(scn), "--out", str(out),
            "--axis", "threshold", "--values", "50,1000,inf", "--replications", "2",
        ]) == 0
        sweep_outputs.append(
            tuple(sorted((p.name, p.read_bytes()) for p in out.iterdir()))
        )
    capsys.readouterr()
    assert run_outputs[0] == run_outputs[1]
    assert sweep_outputs[0] == sweep_outputs[1]
    print("PASS criterion 8: run and sweep outputs byte-identical across reruns")


def test_criterion_9_full_scale_runtime():
    scenario = load_scenario(SCENARIOS / "field15.yaml")
    net, reqs = generate_scenario(scenario.params)
    assert len(reqs) >= 11
    start = time.perf_counter()
    report = run(scenario.params, network=net, requests=reqs[:11])
    elapsed = time.perf_counter() - start
    assert len(report.request_table) == 11
    assert elapsed <= 60.0
    assert report.lost_count < 11  # the run does real routing work
    print(f"PASS criterion 9: 15-node, 11-request run in {elapsed:.1f}s "
          f"({report.lost_count} lost)")
