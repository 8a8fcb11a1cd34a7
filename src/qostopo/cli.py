"""Command-line front end: scenario files in, tables and CSVs out.

Subcommands: ``run`` (sequential admission run → routing table +
machine-readable JSON report), ``sweep`` (threshold or lambda sweep →
CSV), ``loadcheck`` (load LP utilization check → stdout). Exit codes:
0 success, 1 scenario/argument parse error, 2 unusable parameter values,
3 internal solver inconsistency or failure. All randomness lives in the
simulation layer; given the same scenario file and seed, outputs are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .formulation import EnergyLedger, SolverLimitError, ValidationError, solve_load_lp
from .milp import SolverError
from .scenario import ScenarioParseError, ScenarioValueError, load_scenario
from .simulate import (
    RequestOutcome,
    RunReport,
    ScenarioParams,
    SweepResult,
    generate_scenario,
    run,
    sweep_lambda,
    sweep_threshold,
)

__all__ = [
    "main",
    "format_run_table",
    "report_to_json",
    "report_from_json",
    "sweep_to_csv",
]

TABLE_FILENAME = "run_table.txt"
REPORT_FILENAME = "run_report.json"


def _fmt_threshold(threshold: float | None) -> str:
    return "inf" if threshold is None else f"{threshold:g}"


def format_run_table(params: ScenarioParams, report: RunReport) -> str:
    """Routing table in the classic five-column layout."""
    lines = [
        f"λ_m = {params.mean_demand:g}, Threshold = {_fmt_threshold(params.threshold)}, "
        f"Hop count = {params.hop_bound:d}, Variance = {report.variance:.6g}",
        "Req. # | λ_{s,d} | Sender | Receiver | Routing Path",
    ]
    for row in report.request_table:
        path = "Lost" if row.path is None else " → ".join(str(v) for v in row.path)
        lines.append(f"{row.index} | {row.demand:g} | {row.sender} | {row.receiver} | {path}")
    return "\n".join(lines) + "\n"


def report_to_json(params: ScenarioParams, report: RunReport) -> str:
    """Machine-readable run report; floats survive a round-trip exactly."""
    doc = {
        "params": dataclasses.asdict(params),
        "outcomes": [dataclasses.asdict(row) for row in report.request_table],
        "lost_count": report.lost_count,
        "variance": report.variance,
        "total_energy": report.total_energy,
        "final_ledger": report.final_ledger.consumed.tolist(),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report_from_json(text: str) -> tuple[ScenarioParams, RunReport]:
    """Rebuild what :func:`report_to_json` wrote; the derived totals are not read back."""
    doc = json.loads(text)
    params = ScenarioParams(**{**doc["params"], "region": tuple(doc["params"]["region"])})
    table = [RequestOutcome(**o) for o in doc["outcomes"]]
    return params, RunReport(table, EnergyLedger(doc["final_ledger"]))


def _csv_value(value: float | None) -> str:
    return "inf" if value is None else repr(float(value))


def sweep_to_csv(result: SweepResult) -> str:
    lines = ["axis_value,variance_mean,lost_mean,total_energy_mean,replications"]
    for p in result.points:
        lines.append(
            f"{_csv_value(p.axis_value)},{repr(p.variance_mean)},"
            f"{repr(p.lost_mean)},{repr(p.total_energy_mean)},{p.replications}"
        )
    return "\n".join(lines) + "\n"


def _parse_axis_values(text: str, axis: str) -> list[float | None]:
    values: list[float | None] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ScenarioParseError("--values contains an empty entry")
        if axis == "threshold" and token.lower() in ("inf", "none", "null"):
            values.append(None)
            continue
        try:
            value = float(token)
        except ValueError as exc:
            raise ScenarioParseError(f"--values entry {token!r} is not a number") from exc
        if axis == "threshold" and math.isinf(value) and value > 0:
            values.append(None)
            continue
        if not math.isfinite(value):
            raise ScenarioValueError(f"--values entry {token!r} is not usable")
        if axis == "lambda" and value <= 0:
            raise ScenarioValueError(f"mean demand values must be positive, got {value:g}")
        values.append(value)
    return values


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario, seed_override=args.seed)
    report = run(scenario.params, network=scenario.network, requests=scenario.requests)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = format_run_table(scenario.params, report)
    (out / TABLE_FILENAME).write_text(table, encoding="utf-8")
    (out / REPORT_FILENAME).write_text(report_to_json(scenario.params, report), encoding="utf-8")
    sys.stdout.write(table)
    return 0


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario, seed_override=args.seed)
    values = _parse_axis_values(args.values, args.axis)
    replications = args.replications
    if replications is None:
        replications = scenario.replications if scenario.replications else 20
    if replications < 1:
        raise ScenarioValueError(f"replications must be >= 1, got {replications}")
    sweep = sweep_threshold if args.axis == "threshold" else sweep_lambda
    result = sweep(
        scenario.params,
        values,
        replications=replications,
        network=scenario.network,
        requests=scenario.requests,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_text = sweep_to_csv(result)
    (out / f"sweep_{args.axis}.csv").write_text(csv_text, encoding="utf-8")
    sys.stdout.write(csv_text)
    return 0


def _cmd_loadcheck(args) -> int:
    scenario = load_scenario(args.scenario, seed_override=args.seed)
    net, requests = generate_scenario(
        scenario.params, network=scenario.network, requests=scenario.requests
    )
    result = solve_load_lp(net, requests)
    sys.stdout.write(f"L_max = {result.max_utilization:g}\n")
    sys.stdout.write(f"OVERLOADED: {'yes' if result.overloaded else 'no'}\n")
    return 0


class _Parser(argparse.ArgumentParser):
    # Argument mistakes are parse errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qostopo",
        description="Energy-aware topology control and QoS routing experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="sequential admission run: routing table + JSON report")
    p_run.add_argument("--scenario", required=True, help="scenario YAML file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the file's seed")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="replicate runs over a threshold or lambda grid")
    p_sweep.add_argument("--scenario", required=True, help="scenario YAML file")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--axis", required=True, choices=("threshold", "lambda"))
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values ('inf' allowed for threshold)")
    p_sweep.add_argument("--replications", type=int, default=None, help="runs per value (default 20)")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the file's seed")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_load = sub.add_parser("loadcheck", help="report worst per-node bandwidth utilization")
    p_load.add_argument("--scenario", required=True, help="scenario YAML file")
    p_load.add_argument("--seed", type=int, default=None, help="override the file's seed")
    p_load.set_defaults(func=_cmd_loadcheck)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except ScenarioParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ScenarioValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValidationError, SolverLimitError, SolverError) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
