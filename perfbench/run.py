#!/usr/bin/env python3
"""Benchmark for qostopo: sequential admission and load-feasibility checks.

Run from the repository root::

    python3 perfbench/run.py --workload admit8 --seed 0 --seconds 45 --trace 0

An *op* is one admission decision (``solve_single_request`` against the
running ``EnergyLedger``, then ``charge`` when the request is admitted) or
one ``solve_load_lp`` call. Ops run back to back in one process, a closed
loop with one caller, until ``--seconds`` of op time has been spent
(half of it in a traced run, see below).

``--trace 0`` times whole ops and reports the end-to-end metrics.
``--trace 1`` replays the same ops through the public functions that
``solve_single_request`` and ``solve_load_lp`` call, in the same order,
times each call from here and reports the per-layer metrics. It runs ops
for half of ``--seconds`` and replays them untraced in the other half.

Every op is checked outside the timed region. A failed check or a raised
exception counts as an error and never aborts the run. After the ops, the
same inputs go through the program's own entry points and their outputs
must equal the benchmark's: ``simulate.run`` on the first scenarios of an
untraced admission run, and ``simulate.run`` or ``solve_load_lp`` on every
scenario of a traced run, where that pass is also the untraced reference
for ``trace.overhead_frac``.

Standard output carries one line per metric, an environment line, the
errors and, last, one JSON result line. Everything else, including solver
console output written straight to file descriptor 1, goes to standard
error.
"""

import time

_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The scenarios/field15.yaml parameters: 15 nodes in 180 x 180 m, quadratic
# path loss, about one request per node with mean demand 10, three hops.
_FIELD15 = dict(
    node_count=15,
    region=(180.0, 180.0),
    path_loss_exponent=2.0,
    max_power=65000.0,
    bandwidth=200.0,
    request_rate=1.0,
    mean_demand=10.0,
    hop_bound=3,
)

# Why not field15 itself: on 2 CPUs an op there takes ~0.4 s, so a run holds
# too few ops for steady figures or for a p90 with ten samples beyond it.
WORKLOADS = {
    # The acceptance suite's 8-node geometry (100 x 100 m, power cap 20 000,
    # bandwidth 60) with field15's demand and hop bound, and no fairness
    # threshold: every request is admitted, so every admission layer (build,
    # solve, decode and re-check, ledger) runs on every op.
    "admit8": dict(
        kind="admit",
        params=dict(_FIELD15, node_count=8, region=(100.0, 100.0), max_power=20000.0, bandwidth=60.0, threshold=None),
        setup_scenarios=40,
    ),
    # The same geometry under a tight fairness threshold: most requests are
    # lost, so HiGHS spends its time proving infeasibility. BENCHMARK.json
    # does not list it: the topology MILP certifies fairness on its full arc
    # set, stray cycles included, but commits only the decoded path, so about
    # 1 % of the ops here leave a ledger with max > mean + threshold and the
    # run reports correct: false. List it once admissions commit exactly what
    # they certify.
    "fair8": dict(
        kind="admit",
        params=dict(
            _FIELD15, node_count=8, region=(100.0, 100.0), max_power=20000.0, bandwidth=60.0, threshold=2e3
        ),
        setup_scenarios=40,
    ),
    # One load LP per 20-node scenario (~11k variables): the only workload
    # on the linprog branch and check_solution; no MILP runs. At 30 nodes an
    # LP takes 0.4-1 s, too few per run for a p90 with ten samples beyond it.
    "loadcheck20": dict(
        kind="load",
        params=dict(_FIELD15, node_count=20, request_rate=1.5, threshold=None),
        setup_scenarios=4,
    ),
}

# Workload seed s uses scenario seeds s * SEED_STRIDE + k for k = 0, 1, ...;
# a run uses far fewer than SEED_STRIDE scenarios, so seeds share none.
SEED_STRIDE = 1000

# Set-up is measured this many times, each in a fresh interpreter.
SETUP_REPEATS = 5

# An untraced run compares this many scenarios with simulate.run; a traced
# run compares all of them, since it needs the untraced wall time anyway.
CROSS_CHECKED_SCENARIOS = 2

# Relative tolerance of the benchmark's own energy re-checks.
ENERGY_TOL = 1e-9
# Relative tolerance of the flow-conservation and utilization re-checks,
# loose enough for HiGHS's 1e-9 row tolerance summed over a node's arcs.
FLOW_TOL = 1e-6

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_frac", "fraction"),
    ("peak_rss_mb", "MB"),
]

# Layer timings use one name per layer on every workload: admissions fill them
# from build_topology_milp / solve / decode_and_validate, loadcheck20 from
# build_load_lp / solve / check_solution plus flow decoding.
# EnergyLedger.charge is timed inside simulate.loop_self_s (ledger and loop).
PER_LAYER = [
    ("setup.import_s", "s"),
    ("simulate.generate_scenario_s", "s"),
    ("network.matrices_s", "s"),
    ("formulation.build_s", "s"),
    ("formulation.build.calls", "count"),
    ("formulation.model.rows", "count"),
    ("formulation.model.variables", "count"),
    ("formulation.model.binaries", "count"),
    ("formulation.model.nonzeros", "count"),
    ("milp.solve_s", "s"),
    ("milp.solve.calls", "count"),
    ("milp.solve.p90_ms", "ms"),
    ("milp.solve.optimal", "count"),
    ("milp.solve.infeasible", "count"),
    ("milp.solve.resource_limit", "count"),
    ("milp.solve.error", "count"),
    ("milp.solve.useful_frac", "fraction"),
    ("formulation.recheck_s", "s"),
    ("simulate.loop_self_s", "s"),
    ("simulate.admitted", "count"),
    ("simulate.lost", "count"),
    ("op.samples", "count"),
    ("op.p50_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
]


def import_qostopo():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "qostopo" / "__init__.py").is_file():
        raise SystemExit(f"error: no qostopo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qostopo

    if Path(qostopo.__file__).resolve().parent != (SRC / "qostopo").resolve():
        raise SystemExit(f"error: imported qostopo from {qostopo.__file__}, not {SRC}")
    return qostopo


class Scenarios:
    """The workload's scenarios, generated in seed order on first use."""

    def __init__(self, q, workload: str, seed: int):
        self.q = q
        self.params = WORKLOADS[workload]["params"]
        self.base = seed * SEED_STRIDE
        self.items: list = []
        self.generate_s = 0.0
        self.matrices_s = 0.0

    def get(self, k: int):
        """(ScenarioParams, NetworkModel, requests) of scenario ``k``."""
        while len(self.items) <= k:
            params = self.q.ScenarioParams(**self.params, seed=self.base + len(self.items))
            t0 = time.perf_counter()
            net, reqs = self.q.generate_scenario(params)
            t1 = time.perf_counter()
            net.distance_matrix, net.energy_matrix  # cached on first access
            t2 = time.perf_counter()
            self.generate_s += t1 - t0
            self.matrices_s += t2 - t1
            self.items.append((params, net, reqs))
        return self.items[k]


def setup_probe(workload: str, seed: int) -> dict:
    """Import the package and build the first scenarios, as a fresh process does."""
    q = import_qostopo()
    imported = time.perf_counter()
    scenarios = Scenarios(q, workload, seed)
    for k in range(WORKLOADS[workload]["setup_scenarios"]):
        scenarios.get(k)
    return {
        "setup_s": time.perf_counter() - _START,
        "import_s": imported - _START,
        "generate_s": scenarios.generate_s,
        "matrices_s": scenarios.matrices_s,
    }


class SetupSampler:
    """SETUP_REPEATS set-ups, each in its own interpreter, run between ops
    at evenly spaced points of the op time, so that their median does not
    rest on one moment of a shared machine.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                     "--workload", workload, "--seed", str(seed)]
        self.due = [seconds * r / SETUP_REPEATS for r in range(SETUP_REPEATS)]
        self.samples: list[dict] = []

    def __call__(self, busy: float) -> None:
        """Run the set-ups due by ``busy`` seconds of op time."""
        while len(self.samples) < SETUP_REPEATS and busy >= self.due[len(self.samples)]:
            proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"error: set-up probe exited with {proc.returncode}")
            self.samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    def median(self) -> dict:
        self(float("inf"))
        return {key: statistics.median(s[key] for s in self.samples) for key in self.samples[0]}


def _no_pause(busy: float) -> None:
    pass


@dataclass
class Op:
    """One executed op: its inputs' position, outcome, cost and problems."""

    scenario: int
    request: int
    seconds: float
    outcome: object = None
    raised: bool = False
    problems: list = field(default_factory=list)
    spans: dict = field(default_factory=dict)


def op_errors(q):
    """Exceptions an op may raise on solver trouble or a failed re-check.

    RuntimeError comes from an unexpected HiGHS status, ValueError (with
    milp.ModelError) from rejected input, and the package's own
    ValidationError and SolverLimitError from its re-checks and budgets.
    """
    return (RuntimeError, ValueError, q.ValidationError, q.SolverLimitError)


def _model_size(spans):
    """Replace the model a traced op built by its size, so it can be freed."""
    model = spans.pop("model", None)
    if model is not None:
        spans["rows"] = model.num_constraints
        spans["variables"] = model.num_variables
        spans["binaries"] = len(model.binary_ids)
        spans["nonzeros"] = sum(len(c.coefficients) for c in model.constraints)


def _timed(spans, name, fn, *args):
    t0 = time.perf_counter()
    try:
        return fn(*args)
    finally:
        spans[name] = spans.get(name, 0.0) + time.perf_counter() - t0


# ---------------------------------------------------------------------------
# admission workloads


def admit_one(q, net, req, ledger, threshold, spans):
    """One admission op. With ``spans`` None it is exactly what simulate.run
    does per request; otherwise the same calls are made and timed one by one.
    """
    if spans is None:
        sol = q.solve_single_request(net, req, ledger, threshold)
    else:
        model = _timed(spans, "build", q.build_topology_milp, net, [req], ledger, threshold)
        spans["model"] = model
        raw = _timed(spans, "solve", q.solve, model)
        spans["status"] = raw.status.value
        if raw.status is q.Status.OPTIMAL:
            sol = _timed(spans, "recheck", q.decode_and_validate, net, [req], ledger, threshold, raw)
        elif raw.status is q.Status.INFEASIBLE:
            sol = q.TopologySolution(0.0, set(), [None], np.zeros(net.node_count))
        elif raw.status is q.Status.RESOURCE_LIMIT:
            sol = q.TopologySolution(0.0, set(), [None], np.zeros(net.node_count), resource_limited=True)
        else:
            raise q.ValidationError(f"topology model unexpectedly {raw.status.value}")
    if sol.routes[0] is not None:
        ledger.charge(sol.node_energy)
    return sol


def outcome_row(q, index, req, sol):
    """The routing-table row simulate.run writes for this decision."""
    path = sol.routes[0]
    if path is None:
        return q.RequestOutcome(index, req.demand, req.sender, req.receiver, None, None, sol.resource_limited)
    return q.RequestOutcome(index, req.demand, req.sender, req.receiver, list(path), sol.max_energy)


def check_admission(net, req, threshold, sol, before, after) -> list[str]:
    """Re-check one admission decision against the network and the ledger."""
    energy = net.energy_matrix
    path = sol.routes[0]
    if path is None:
        problems = []
        if np.any(sol.node_energy != 0):
            problems.append("lost request reports node energy")
        if not np.array_equal(after, before):
            problems.append("lost request changed the ledger")
        return problems
    n = net.node_count
    if not all(isinstance(v, int) and 0 <= v < n for v in path) or len(set(path)) != len(path):
        return [f"route {path} is not a simple path over nodes 0..{n - 1}"]
    problems = []
    if len(path) < 2 or path[0] != req.sender or path[-1] != req.receiver:
        problems.append(f"route {path} does not lead from {req.sender} to {req.receiver}")
        return problems
    if len(path) - 1 > req.hop_bound:
        problems.append(f"route {path} exceeds the hop bound {req.hop_bound}")
    expected = np.zeros(n)
    for i, j in zip(path, path[1:]):
        expected[i] += req.demand * energy[i, j]
    tol = ENERGY_TOL * max(1.0, float(expected.max()))
    if np.abs(sol.node_energy - expected).max() > tol:
        problems.append("committed node energy differs from demand x link energy along the route")
    if np.abs((after - before) - expected).max() > ENERGY_TOL * max(1.0, float(after.max())):
        problems.append("ledger increment differs from the route's energy")
    costliest = max(float(energy[i, j]) for i, j in zip(path, path[1:]))
    slack = ENERGY_TOL * max(1.0, net.max_power)
    if not costliest - slack <= sol.max_energy <= net.max_power + slack:
        problems.append(f"max_energy {sol.max_energy} outside [{costliest}, {net.max_power}]")
    if threshold is not None:
        peak, mean = float(after.max()), float(after.mean())
        if peak > mean + threshold + ENERGY_TOL * max(1.0, peak, abs(threshold)):
            problems.append(
                f"committed ledger breaks fairness: max {peak:.6g} > mean {mean:.6g} + threshold {threshold:g}"
            )
    return problems


def run_admissions(q, scenarios, seconds, traced, pause=_no_pause) -> list[Op]:
    """Admit requests scenario by scenario until ``seconds`` of op time.

    ``pause(busy)`` runs before each op, outside the timed region.
    """
    threshold = scenarios.params["threshold"]
    ops: list[Op] = []
    busy = 0.0
    k = 0
    while busy < seconds:
        _, net, reqs = scenarios.get(k)
        ledger = q.EnergyLedger.empty(net.node_count)
        for i, req in enumerate(reqs):
            if busy >= seconds:
                break
            pause(busy)
            before = ledger.consumed.copy()
            spans = {} if traced else None
            sol, raised = None, None
            t0 = time.perf_counter()
            try:
                sol = admit_one(q, net, req, ledger, threshold, spans)
            except op_errors(q) as exc:
                raised = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            busy += dt
            op = Op(k, i, dt, spans=spans or {})
            _model_size(op.spans)
            if raised:
                op.raised = True
                op.problems.append(raised)
            else:
                op.outcome = outcome_row(q, i + 1, req, sol)
                if sol.resource_limited:
                    op.problems.append("solver budget stop (resource_limited)")
                op.problems += check_admission(net, req, threshold, sol, before, ledger.consumed)
            ops.append(op)
        k += 1
    return ops


def compare_tables(mine, reference) -> list[int]:
    """Positions of rows where two routing tables disagree."""
    width = max(len(mine), len(reference))
    return [
        r for r in range(width)
        if r >= len(mine) or r >= len(reference) or mine[r] != reference[r]
    ]


def cross_check_admissions(q, scenarios, ops, limit=None) -> float:
    """Compare scenarios' rows with simulate.run on the same requests.

    Runs the program's own loop over the requests the benchmark admitted in
    each scenario (the first ``limit`` scenarios, or all), up to the first
    op that raised, marks disagreeing ops, and returns the wall time
    simulate.run took.
    """
    by_scenario: dict[int, list[Op]] = {}
    for op in ops:
        if limit is None or op.scenario < limit:
            by_scenario.setdefault(op.scenario, []).append(op)
    wall = 0.0
    for k, group in by_scenario.items():
        stop = next((n for n, op in enumerate(group) if op.raised), len(group))
        if stop == 0:
            continue
        params, net, reqs = scenarios.get(k)
        t0 = time.perf_counter()
        try:
            report = q.run(params, network=net, requests=reqs[:stop])
        except op_errors(q) as exc:
            group[0].problems.append(f"simulate.run raised {type(exc).__name__}: {exc}")
            continue
        finally:
            wall += time.perf_counter() - t0
        mine = [op.outcome for op in group[:stop]]
        for r in compare_tables(mine, report.request_table):
            bad = group[min(r, stop - 1)]
            bad.problems.append(f"routing-table row {r + 1} differs from simulate.run")
    return wall


# ---------------------------------------------------------------------------
# load-check workload


def _commodities(requests):
    demand: dict[tuple[int, int], float] = {}
    for r in requests:
        demand[(r.sender, r.receiver)] = demand.get((r.sender, r.receiver), 0.0) + float(r.demand)
    return demand


def load_one(q, net, reqs, spans):
    """One load check. With ``spans`` None it is ``solve_load_lp``; otherwise
    the calls it makes are repeated and timed, and the flows decoded here.
    """
    if spans is None:
        return q.solve_load_lp(net, reqs)
    model = _timed(spans, "build", q.build_load_lp, net, reqs)
    spans["model"] = model
    sol = _timed(spans, "solve", q.solve, model)
    spans["status"] = sol.status.value
    if sol.status is q.Status.RESOURCE_LIMIT:
        raise q.SolverLimitError("load LP hit the iteration limit")
    if sol.status is not q.Status.OPTIMAL:
        raise q.ValidationError(f"load LP unexpectedly {sol.status.value}")
    t0 = time.perf_counter()
    problems = q.check_solution(model, sol.values)
    if problems:
        raise q.ValidationError("load LP solution failed re-check: " + "; ".join(problems))
    # Layout of build_load_lp: the utilization bound, then per commodity in
    # sorted endpoint order one flow per ordered node pair, row-major.
    n = net.node_count
    off_diagonal = ~np.eye(n, dtype=bool)
    flows = {}
    for c, key in enumerate(sorted(_commodities(reqs))):
        mat = np.zeros((n, n))
        mat[off_diagonal] = sol.values[1 + c * n * (n - 1): 1 + (c + 1) * n * (n - 1)]
        flows[key] = mat
    result = q.LoadLpResult(max_utilization=float(sol.values[0]), flows=flows)
    spans["recheck"] = time.perf_counter() - t0
    return result


def check_load(net, reqs, result) -> list[str]:
    """Flows conserve every demand; the utilization matches the flows."""
    demand = _commodities(reqs)
    if set(result.flows) != set(demand):
        return ["flow commodities differ from the request endpoints"]
    n = net.node_count
    problems = []
    load = np.zeros(n)
    for (s, d), lam in demand.items():
        mat = result.flows[(s, d)]
        tol = FLOW_TOL * max(1.0, lam)
        if mat.min() < -tol:
            problems.append(f"commodity {s}->{d} has negative flow {mat.min()}")
        net_out = mat.sum(axis=1) - mat.sum(axis=0)
        want = np.zeros(n)
        want[s], want[d] = lam, -lam
        if np.abs(net_out - want).max() > tol:
            problems.append(f"commodity {s}->{d} does not conserve its demand {lam}")
        load += mat.sum(axis=1) + mat.sum(axis=0)
        load[s] += lam
        load[d] += lam
    worst = float(load.max()) / net.bandwidth
    if abs(worst - result.max_utilization) > FLOW_TOL * max(1.0, worst):
        problems.append(f"max_utilization {result.max_utilization} != recomputed {worst}")
    return problems


def run_load_checks(q, scenarios, seconds, traced, pause=_no_pause) -> list[Op]:
    """One load check per scenario until ``seconds`` of op time; ``pause``
    as in run_admissions.
    """
    ops: list[Op] = []
    busy = 0.0
    k = 0
    while busy < seconds:
        pause(busy)
        _, net, reqs = scenarios.get(k)
        spans = {} if traced else None
        result, raised = None, None
        t0 = time.perf_counter()
        try:
            result = load_one(q, net, reqs, spans)
        except op_errors(q) as exc:
            raised = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        busy += dt
        op = Op(k, 0, dt, outcome=result, spans=spans or {})
        _model_size(op.spans)
        if raised:
            op.raised = True
            op.problems.append(raised)
        else:
            op.problems += check_load(net, reqs, result)
        ops.append(op)
        k += 1
    return ops


def cross_check_loads(q, scenarios, ops) -> float:
    """Compare each traced result with ``solve_load_lp`` on the same inputs."""
    wall = 0.0
    for op in ops:
        if op.raised:
            continue
        _, net, reqs = scenarios.get(op.scenario)
        t0 = time.perf_counter()
        try:
            ref = q.solve_load_lp(net, reqs)
        except op_errors(q) as exc:
            op.problems.append(f"solve_load_lp raised {type(exc).__name__}: {exc}")
            continue
        finally:
            wall += time.perf_counter() - t0
        same = ref.max_utilization == op.outcome.max_utilization and set(ref.flows) == set(op.outcome.flows)
        if not same or any(not np.array_equal(ref.flows[key], op.outcome.flows[key]) for key in ref.flows):
            op.problems.append("traced load check differs from solve_load_lp")
    return wall


# ---------------------------------------------------------------------------
# metrics


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end_metrics(ops, setup) -> dict:
    latencies = [op.seconds for op in ops]
    busy = sum(latencies)
    errors = sum(1 for op in ops if op.problems)
    return {
        "setup_s": setup["setup_s"],
        "ops_per_s": len(ops) / busy,
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_p90_ms": 1000.0 * _p90(latencies),
        "ok_frac": 1.0 - errors / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(q, ops, setup, reference_wall) -> dict:
    def total(name):
        return sum(op.spans.get(name, 0.0) for op in ops)

    models = [op.spans for op in ops if "rows" in op.spans]
    solves = [op for op in ops if "solve" in op.spans]
    statuses = [op.spans.get("status") for op in solves]
    solve_s = total("solve")
    busy = sum(op.seconds for op in ops)
    layers = total("build") + solve_s + total("recheck")

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    return {
        "setup.import_s": setup["import_s"],
        "simulate.generate_scenario_s": setup["generate_s"],
        "network.matrices_s": setup["matrices_s"],
        "formulation.build_s": total("build"),
        "formulation.build.calls": len(models),
        "formulation.model.rows": mean([m["rows"] for m in models]),
        "formulation.model.variables": mean([m["variables"] for m in models]),
        "formulation.model.binaries": mean([m["binaries"] for m in models]),
        "formulation.model.nonzeros": mean([m["nonzeros"] for m in models]),
        "milp.solve_s": solve_s,
        "milp.solve.calls": len(solves),
        "milp.solve.p90_ms": 1000.0 * _p90([op.spans["solve"] for op in solves]) if solves else 0.0,
        "milp.solve.optimal": statuses.count("optimal"),
        "milp.solve.infeasible": statuses.count("infeasible"),
        "milp.solve.resource_limit": statuses.count("resource_limit"),
        "milp.solve.error": sum(1 for op in solves if "status" not in op.spans),
        "milp.solve.useful_frac": statuses.count("optimal") / len(solves) if solves else 0.0,
        "formulation.recheck_s": total("recheck"),
        "simulate.loop_self_s": busy - layers,
        "simulate.admitted": sum(1 for op in ops if isinstance(op.outcome, q.RequestOutcome) and not op.outcome.lost),
        "simulate.lost": sum(1 for op in ops if isinstance(op.outcome, q.RequestOutcome) and op.outcome.lost),
        "op.samples": len(ops),
        "op.p50_ms": 1000.0 * statistics.median(op.seconds for op in ops),
        "trace.overhead_frac": busy / reference_wall - 1.0 if reference_wall else 0.0,
    }


def environment(args) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_benchmark(args, out) -> int:
    q = import_qostopo()
    scenarios = Scenarios(q, args.workload, args.seed)
    traced = bool(args.trace)
    # A traced run spends half its time on the traced ops and about as much
    # again replaying them through the program's entry points.
    seconds = args.seconds / 2 if traced else args.seconds
    sampler = SetupSampler(args.workload, args.seed, seconds)
    if WORKLOADS[args.workload]["kind"] == "admit":
        ops = run_admissions(q, scenarios, seconds, traced, sampler)
        limit = None if traced else CROSS_CHECKED_SCENARIOS
        reference_wall = cross_check_admissions(q, scenarios, ops, limit)
    else:
        ops = run_load_checks(q, scenarios, seconds, traced, sampler)
        # The untraced loop already is solve_load_lp: re-run it only to
        # check and time the traced replay.
        reference_wall = cross_check_loads(q, scenarios, ops) if traced else 0.0

    setup = sampler.median()
    if traced:
        metrics, units = per_layer_metrics(q, ops, setup, reference_wall), dict(PER_LAYER)
    else:
        metrics, units = end_to_end_metrics(ops, setup), dict(END_TO_END)
    failed = [op for op in ops if op.problems]

    def emit(line):
        out.write(line + "\n")

    for name, value in metrics.items():
        emit(f"metric {name} = {value!r} {units[name]} (ops={len(ops)})")
    emit("environment " + json.dumps(environment(args), sort_keys=True))
    for op in failed:
        emit(f"error scenario={op.scenario} request={op.request + 1}: " + "; ".join(op.problems))
    emit(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    out.flush()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 // SEED_STRIDE - 1:
        parser.error(f"--seed must lie in [0, {2**64 // SEED_STRIDE - 1})")
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # HiGHS writes some console output straight to file descriptor 1. Keep
    # the real stdout for results only and send fd 1 to stderr meanwhile.
    sys.stdout.flush()
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    with out:
        return run_benchmark(args, out)


if __name__ == "__main__":
    sys.exit(main())
