"""Scenario generation and sequential-run proofs.

1. parameter validation rejects every malformed field
2. generation is a pure function of the seed; different seeds differ
3. the documented draw order is exact: an independent replay of the
   phases (positions, counts, destinations, demands) reproduces the
   scenario draw for draw
4. explicit networks / request lists skip their phases
5. request statistics: counts track the rate, demands track the mean
   and never drop below one
6. the Poisson inversion sampler: edge cases and distribution checks
7. variance_of: hand values, scale invariance, zero-traffic convention
8. run reports are internally consistent and deterministic; paths obey
   every per-request rule; the ledger equals the tabulated energy
9. sequential coupling: earlier admissions can block later ones under a
   fairness threshold; the committed ledger keeps the fairness row after
   every admission
10. sweeps: axis ordering with None last, duplicates kept, singleton
    points equal averaged runs, relaxed thresholds never lose more
"""

import math

import numpy as np
import pytest

from qostopo import (
    EnergyLedger,
    NetworkModel,
    Request,
    RunReport,
    ScenarioParams,
    generate_scenario,
    run,
    sweep_lambda,
    sweep_threshold,
    variance_of,
)
from qostopo.simulate import _poisson


def params(**kw):
    args = dict(
        node_count=5,
        region=(20.0, 20.0),
        path_loss_exponent=2.0,
        max_power=2000.0,
        bandwidth=100.0,
        request_rate=1.0,
        mean_demand=2.0,
        hop_bound=3,
        threshold=None,
        seed=7,
    )
    args.update(kw)
    return ScenarioParams(**args)


LINE3 = NetworkModel(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), max_power=10.0, bandwidth=50.0)


def line3_params(**kw):
    args = dict(node_count=3, region=(2.0, 1.0), max_power=10.0, bandwidth=50.0)
    args.update(kw)
    return params(**args)


# -- parameters ----------------------------------------------------------------


def test_params_validation():
    params()  # the baseline itself is fine
    for bad in (
        dict(node_count=1),
        dict(node_count=2.0),
        dict(region=(0.0, 5.0)),
        dict(region=(5.0, math.inf)),
        dict(path_loss_exponent=0.0),
        dict(max_power=-1.0),
        dict(bandwidth=0.0),
        dict(request_rate=0.0),
        dict(mean_demand=-2.0),
        dict(hop_bound=0),
        dict(hop_bound=1.5),
        dict(threshold=math.nan),
        dict(threshold=math.inf),
        dict(seed=-1),
        dict(seed=2**64),
        dict(seed=1.0),
        dict(hop_bound=True),
        dict(seed=False),
        dict(max_power=True),
    ):
        with pytest.raises(ValueError):
            params(**bad)
    assert params(threshold=0.0).threshold == 0.0


# -- generation ----------------------------------------------------------------


def test_generation_is_deterministic():
    net1, reqs1 = generate_scenario(params())
    net2, reqs2 = generate_scenario(params())
    assert net1.positions == net2.positions
    assert reqs1 == reqs2


def test_seed_changes_the_scenario():
    net1, reqs1 = generate_scenario(params(seed=1))
    net2, reqs2 = generate_scenario(params(seed=2))
    assert net1.positions != net2.positions or reqs1 != reqs2


def test_draw_order_replay():
    # independent replay of the documented phases, draw for draw
    p = params(node_count=4, request_rate=1.5, mean_demand=4.0, seed=123)
    rng = np.random.default_rng(123)

    def inversion(mean):
        if mean <= 0:
            return 0
        prob = math.exp(-mean)
        u = rng.random()
        cdf, k = prob, 0
        while u > cdf:
            k += 1
            prob *= mean / k
            cdf += prob
        return k

    width, height = p.region
    coords = [(rng.random() * width, rng.random() * height) for _ in range(4)]
    counts = [inversion(p.request_rate) for _ in range(4)]
    endpoints = []
    for src in range(4):
        others = [v for v in range(4) if v != src]
        for _ in range(counts[src]):
            endpoints.append((src, others[int(rng.random() * 3)]))
    expected = [Request(s, d, float(1 + inversion(p.mean_demand - 1.0)), p.hop_bound) for s, d in endpoints]

    net, reqs = generate_scenario(p)
    assert net.positions == tuple(coords)
    assert reqs == expected
    assert net.max_power == p.max_power and net.bandwidth == p.bandwidth


def test_explicit_network_skips_position_draws():
    p = line3_params()
    net, reqs = generate_scenario(p, network=LINE3)
    assert net is LINE3
    again = generate_scenario(p, network=LINE3)
    assert again[1] == reqs
    # the position phase was skipped, so the request stream differs from a
    # full generation under the same seed (for this seed it provably does)
    full_net, full_reqs = generate_scenario(p)
    assert reqs != full_reqs


def test_explicit_requests_skip_request_draws():
    p = params()
    given = [Request(0, 1, 2.0, 3)]
    net, reqs = generate_scenario(p, requests=given)
    assert reqs == given
    assert reqs is not given  # caller's list is copied, not aliased
    full_net, _ = generate_scenario(p)
    assert net.positions == full_net.positions


def test_explicit_network_node_count_must_match():
    with pytest.raises(ValueError):
        generate_scenario(params(node_count=4), network=LINE3)


def test_request_statistics_track_the_parameters():
    total, total_demand, n, seeds = 0, 0.0, 30, 20
    for seed in range(seeds):
        _, reqs = generate_scenario(params(node_count=n, request_rate=1.0, mean_demand=5.0, seed=seed))
        total += len(reqs)
        total_demand += sum(r.demand for r in reqs)
        assert all(r.demand >= 1.0 for r in reqs)
        assert all(0 <= r.sender < n and 0 <= r.receiver < n and r.sender != r.receiver for r in reqs)
    mean_count = total / (n * seeds)
    assert 0.8 < mean_count < 1.2
    assert 4.5 < total_demand / total < 5.5


# -- the Poisson sampler ---------------------------------------------------------


def test_poisson_edge_cases():
    rng = np.random.default_rng(0)
    assert _poisson(rng, 0.0) == 0
    assert _poisson(rng, -3.0) == 0
    with pytest.raises(ValueError):
        _poisson(rng, 1e6)  # exp(-mean) underflows to zero


def test_poisson_moments():
    rng = np.random.default_rng(42)
    draws = np.array([_poisson(rng, 3.0) for _ in range(4000)])
    assert abs(draws.mean() - 3.0) < 0.15
    assert abs(draws.var() - 3.0) < 0.4


def test_poisson_is_reproducible():
    a = [_poisson(np.random.default_rng(9), 2.5) for _ in range(1)]
    b = [_poisson(np.random.default_rng(9), 2.5) for _ in range(1)]
    assert a == b


# -- variance ---------------------------------------------------------------------


def test_variance_hand_values():
    assert variance_of(EnergyLedger(np.array([1.0, 0.0]))) == pytest.approx(0.25)
    assert variance_of(EnergyLedger(np.array([5.0, 5.0, 5.0]))) == 0.0
    assert variance_of(EnergyLedger.empty(4)) == 0.0
    assert variance_of(EnergyLedger(np.array([2.0, 2.0, 0.0]))) == pytest.approx(1.0 / 18.0)


def test_variance_is_scale_invariant():
    rng = np.random.default_rng(15)
    for _ in range(20):
        consumed = rng.uniform(0.0, 5.0, size=int(rng.integers(2, 9)))
        if consumed.sum() == 0:
            continue
        base = variance_of(EnergyLedger(consumed))
        scaled = variance_of(EnergyLedger(consumed * float(rng.uniform(0.1, 90.0))))
        assert scaled == pytest.approx(base, rel=1e-12)
        shares = consumed / consumed.sum()
        assert base == pytest.approx(float(np.var(shares)), rel=1e-12)


# -- runs -------------------------------------------------------------------------


def test_scripted_run_table():
    report = run(line3_params(mean_demand=2.0), network=LINE3, requests=[Request(0, 2, 2.0, 3)])
    assert report.lost_count == 0
    assert len(report.request_table) == 1
    row = report.request_table[0]
    assert (row.index, row.sender, row.receiver, row.demand) == (1, 0, 2, 2.0)
    assert row.path == [0, 1, 2] and not row.lost and not row.resource_limited
    assert row.max_energy == pytest.approx(1.0)
    assert report.total_energy == pytest.approx(4.0)
    assert report.variance == pytest.approx(1.0 / 18.0)
    assert report.final_ledger == EnergyLedger(np.array([2.0, 2.0, 0.0]))


def test_run_with_no_requests():
    report = run(line3_params(), network=LINE3, requests=[])
    assert report.request_table == [] and report.lost_count == 0
    assert report.variance == 0.0 and report.total_energy == 0.0


def test_lost_requests_leave_no_trace_on_the_ledger():
    # the far pair is out of power range with one hop, the near pair routes
    net = NetworkModel(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), max_power=3.0, bandwidth=50.0)
    reqs = [Request(0, 2, 1.0, 1), Request(0, 1, 1.0, 1)]
    report = run(line3_params(max_power=3.0), network=net, requests=reqs)
    assert report.lost_count == 1
    lost_row, ok_row = report.request_table
    assert lost_row.lost and lost_row.max_energy is None and not lost_row.resource_limited
    assert ok_row.path == [0, 1]
    assert report.final_ledger == EnergyLedger(np.array([1.0, 0.0, 0.0]))


def test_run_is_deterministic_and_pure():
    p = params(node_count=6, seed=11)
    first = run(p)
    second = run(p)
    assert first == second
    given = [Request(0, 1, 2.0, 3)]
    run(p, requests=given)
    assert given == [Request(0, 1, 2.0, 3)]


def test_run_report_consistency():
    for seed in range(6):
        p = params(node_count=6, mean_demand=3.0, threshold=900.0, seed=seed)
        net, reqs = generate_scenario(p)
        report = run(p)
        assert len(report.request_table) == len(reqs)
        assert [r.index for r in report.request_table] == list(range(1, len(reqs) + 1))
        recomputed = np.zeros(p.node_count)
        for row in report.request_table:
            if row.lost:
                continue
            assert row.path[0] == row.sender and row.path[-1] == row.receiver
            assert len(set(row.path)) == len(row.path)
            assert len(row.path) - 1 <= p.hop_bound
            assert row.max_energy <= p.max_power + 1e-9
            for i, j in zip(row.path, row.path[1:]):
                hop = net.link_energy(i, j)
                assert hop <= row.max_energy + 1e-9
                recomputed[i] += row.demand * hop
        assert report.final_ledger.consumed == pytest.approx(recomputed, abs=1e-9)
        assert report.total_energy == pytest.approx(recomputed.sum(), abs=1e-9)
        # population variance of the per-node shares, 0 when nothing was routed
        total = recomputed.sum()
        shares = recomputed / total if total > 0 else recomputed
        assert report.variance == pytest.approx(np.var(shares), abs=1e-12)


def test_sequential_coupling_under_a_threshold():
    # the first admission concentrates energy at the sender; with a tight
    # fairness slack the identical follow-up no longer fits
    p = line3_params(threshold=6.0)
    reqs = [Request(0, 2, 2.0, 1), Request(0, 2, 2.0, 1)]
    report = run(p, network=LINE3, requests=reqs)
    assert [row.lost for row in report.request_table] == [False, True]
    # with no threshold both are admitted
    free = run(line3_params(), network=LINE3, requests=reqs)
    assert free.lost_count == 0


@pytest.mark.parametrize("threshold", [5.0, 50.0, 500.0, 2000.0])
def test_committed_ledger_keeps_fairness_after_every_admission(threshold):
    # an admission certifies the fairness row on exactly the energy it
    # charges, so replaying the table never finds a ledger above
    # mean + threshold; hop bound 4 leaves room for a route plus a cycle
    for seed in range(12):
        p = params(node_count=8, region=(100.0, 100.0), max_power=20000.0, bandwidth=60.0,
                   mean_demand=10.0, hop_bound=4, threshold=threshold, seed=seed)
        net, _ = generate_scenario(p)
        ledger = np.zeros(p.node_count)
        for row in run(p).request_table:
            if row.lost:
                continue
            for i, j in zip(row.path, row.path[1:]):
                ledger[i] += row.demand * net.link_energy(i, j)
            peak = float(ledger.max())
            assert peak <= ledger.mean() + threshold + 1e-7 * max(1.0, peak), (seed, row.index)


# -- sweeps ------------------------------------------------------------------------


def test_sweep_orders_axis_with_none_last():
    p = line3_params()
    res = sweep_threshold(p, [None, 5.0, 0.0], replications=2, network=LINE3,
                          requests=[Request(0, 2, 2.0, 3)])
    assert [pt.axis_value for pt in res.points] == [0.0, 5.0, None]
    lost = [pt.lost_mean for pt in res.points]
    assert lost[0] >= lost[1] >= lost[2]
    assert lost[0] == 1.0 and lost[2] == 0.0
    assert all(pt.replications == 2 for pt in res.points)


def test_sweep_keeps_duplicate_values():
    p = line3_params()
    res = sweep_threshold(p, [5.0, 5.0], replications=1, network=LINE3,
                          requests=[Request(0, 2, 2.0, 3)])
    assert [pt.axis_value for pt in res.points] == [5.0, 5.0]
    assert res.points[0] == res.points[1]


def test_sweep_point_equals_averaged_runs():
    p = params(node_count=5, seed=3)
    res = sweep_lambda(p, [2.0], replications=3)
    point = res.points[0]
    reports = [
        run(ScenarioParams(**{**p.__dict__, "mean_demand": 2.0, "seed": 3 + rep}))
        for rep in range(3)
    ]
    assert point.lost_mean == pytest.approx(np.mean([r.lost_count for r in reports]))
    assert point.variance_mean == pytest.approx(np.mean([r.variance for r in reports]))
    assert point.total_energy_mean == pytest.approx(np.mean([r.total_energy for r in reports]))


def test_sweep_lambda_with_slack_bandwidth_loses_nothing():
    p = params(node_count=5, bandwidth=500.0, seed=21)
    res = sweep_lambda(p, [1.0, 2.0], replications=3)
    assert [pt.axis_value for pt in res.points] == [1.0, 2.0]
    assert res.points[0].lost_mean == 0.0


def test_sweep_rejects_bad_replications():
    with pytest.raises(ValueError):
        sweep_threshold(line3_params(), [1.0], replications=0, network=LINE3, requests=[])


def test_threshold_relaxation_trend_at_scale():
    # a fuller demonstration of the fairness trade-off than the scripted
    # cases: more slack admits at least as many requests, seed by seed
    p = params(node_count=6, mean_demand=3.0, seed=40)
    res = sweep_threshold(p, [50.0, 2000.0, None], replications=4)
    lost = [pt.lost_mean for pt in res.points]
    assert lost[0] >= lost[1] >= lost[2]
    assert res.points[2].axis_value is None