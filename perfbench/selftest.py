#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

Runs every workload for one second in both modes and checks that each
metric BENCHMARK.json declares prints by name and unit, both as a metric
line and in the JSON result line. Then feeds the correctness checks a
corrupted routing table, corrupted routes and corrupted load flows, and
checks that each is caught. Exits non-zero on the first failure.
"""

import dataclasses
import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_declared_metrics(spec):
    """run.py reports exactly the metrics BENCHMARK.json declares."""
    for key, table in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        check(declared == table, f"BENCHMARK.json {key} differs from run.py: {declared} != {table}")
    check({w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS), "BENCHMARK.json names unknown workloads")


def check_printed_metrics(spec):
    """Every declared metric prints with its unit in one-second runs."""
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=300,
            )
            where = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{where} exited {proc.returncode}: {proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys {set(result)}")
            check(result["attempted"] >= 1, f"{where}: no op attempted")
            errors = [line for line in lines if line.startswith("error ")]
            check(result["failed"] == len(errors), f"{where}: {result['failed']} failed but {len(errors)} error lines")
            check(result["correct"] == (not errors), f"{where}: correct flag disagrees with the error lines")
            env = json.loads(next(line for line in lines if line.startswith("environment "))[len("environment "):])
            for field in ("cpu_count", "python", "numpy", "scipy"):
                check(env.get(field), f"{where}: environment lacks {field}")
            metrics = result["metrics"]
            check(list(metrics) == [m["name"] for m in spec[key]], f"{where}: metric names {list(metrics)}")
            for m in spec[key]:
                name, unit = m["name"], m["unit"]
                check(metrics[name]["unit"] == unit, f"{where}: {name} has unit {metrics[name]['unit']}")
                check(isinstance(metrics[name]["value"], (int, float)), f"{where}: {name} is not a number")
                check(
                    any(line.startswith(f"metric {name} = ") and f" {unit} (ops=" in line for line in lines),
                    f"{where}: no metric line for {name} in {unit}",
                )
            print(f"ok  {where}: {len(metrics)} metrics, {result['attempted']} ops, {result['failed']} failed")


def check_admission_checks(q):
    """A corrupted routing table or route is reported, a faithful one is not."""
    scenarios = bench.Scenarios(q, "admit8", 0)
    ops = bench.run_admissions(q, scenarios, 0.5, traced=False)
    reported = [list(op.problems) for op in ops]
    bench.cross_check_admissions(q, scenarios, ops, limit=1)
    check([op.problems for op in ops] == reported, "faithful routing table differs from simulate.run")

    first = ops[0]
    first.outcome = dataclasses.replace(first.outcome, path=[first.outcome.receiver, first.outcome.sender])
    bench.cross_check_admissions(q, scenarios, ops, limit=1)
    check(any("differs from simulate.run" in p for p in first.problems), "corrupted routing table not caught")
    check(bench.compare_tables([first.outcome], []) == [0], "missing row not caught")

    _, net, reqs = scenarios.get(0)
    req = reqs[0]
    ledger = q.EnergyLedger.empty(net.node_count)
    sol = q.solve_single_request(net, req, ledger, None)
    check(sol.routes[0] is not None, "first admit8 request is not admitted")
    before = ledger.consumed.copy()
    ledger.charge(sol.node_energy)
    path = sol.routes[0]
    check(not bench.check_admission(net, req, None, sol, before, ledger.consumed), "valid admission rejected")
    bad_routes = {
        "repeated node": [path[0]] + path,
        "wrong receiver": path[:-1] + [next(v for v in range(net.node_count) if v not in path)],
    }
    for label, route in bad_routes.items():
        corrupted = dataclasses.replace(sol, routes=[route])
        check(bench.check_admission(net, req, None, corrupted, before, ledger.consumed), f"{label} not caught")
    undercharged = dataclasses.replace(sol, node_energy=sol.node_energy * 0.5)
    check(bench.check_admission(net, req, None, undercharged, before, ledger.consumed), "wrong energy not caught")
    # One route's energy on an empty ledger puts some node above the mean.
    check(bench.check_admission(net, req, 0.0, sol, before, ledger.consumed), "broken fairness not caught")
    print("ok  admission checks catch a corrupted routing table, routes, energy and fairness")


def check_exception_counting(q):
    """An op whose solve raises is counted as an error and the run goes on."""

    def failing_solve(model, limits=None):
        raise RuntimeError("solver returned an unexpected result: Solve error")

    broken = types.SimpleNamespace(**{name: getattr(q, name) for name in q.__all__})
    broken.solve = failing_solve
    ops = bench.run_admissions(broken, bench.Scenarios(q, "admit8", 0), 0.2, traced=True)
    check(len(ops) > 1 and all(op.raised for op in ops), "raising ops were not all recorded")
    setup = {"setup_s": 1.0, "import_s": 1.0, "generate_s": 0.0, "matrices_s": 0.0}
    layers = bench.per_layer_metrics(broken, ops, setup, reference_wall=1.0)
    check(layers["milp.solve.error"] == len(ops), f"milp.solve.error {layers['milp.solve.error']} != {len(ops)}")
    check(bench.end_to_end_metrics(ops, setup)["ok_frac"] == 0.0, "raising ops counted as correct")
    print(f"ok  {len(ops)} raising solves counted in milp.solve.error and ok_frac")


def check_load_checks(q):
    """Flows that break conservation or the utilization are reported."""
    scenarios = bench.Scenarios(q, "loadcheck20", 0)
    _, net, reqs = scenarios.get(0)
    result = q.solve_load_lp(net, reqs)
    check(not bench.check_load(net, reqs, result), "valid load result rejected")
    key = next(iter(result.flows))
    leaky = dict(result.flows)
    leaky[key] = result.flows[key] * 0.5
    check(bench.check_load(net, reqs, q.LoadLpResult(result.max_utilization, leaky)), "leaky flows not caught")
    low = q.LoadLpResult(result.max_utilization * 0.9, result.flows)
    check(bench.check_load(net, reqs, low), "wrong utilization not caught")
    print("ok  load checks catch broken conservation and a wrong utilization")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_declared_metrics(spec)
    check_printed_metrics(spec)
    q = bench.import_qostopo()
    check_admission_checks(q)
    check_exception_counting(q)
    check_load_checks(q)
    print("selftest passed")


if __name__ == "__main__":
    main()
