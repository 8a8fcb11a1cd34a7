"""Command-line interface proofs.

1. `run` writes and prints the routing table byte-for-byte, plus a golden JSON
   report that round-trips to the exact in-memory objects; file descriptor 1
   carries the table (and `loadcheck` its summary) and nothing else, both
   against stand-in solvers that write to it and on a thresholded scenario
   where HiGHS itself does
2. `sweep` writes the CSV grid byte-for-byte with the axis sorted and the
   unconstrained threshold last
3. `loadcheck` prints the utilization summary and the strict overload flag
4. reruns are byte-identical; --seed overrides the file's seed
5. exit codes: 0 success, 1 structural/usage problems, 2 unusable values,
   3 internal solver trouble; --help exits 0
"""

import contextlib
import os
from pathlib import Path

import pytest

import qostopo.cli as cli
import qostopo.milp
from qostopo import SolverLimitError, load_scenario, run
from qostopo.cli import (
    REPORT_FILENAME,
    TABLE_FILENAME,
    main,
    report_from_json,
    report_to_json,
)

LINE3 = Path(__file__).resolve().parent.parent / "scenarios" / "line3.yaml"

LINE3_TABLE = (
    "λ_m = 2, Threshold = inf, Hop count = 3, Variance = 0.0555556\n"
    "Req. # | λ_{s,d} | Sender | Receiver | Routing Path\n"
    "1 | 2 | 0 | 2 | 0 → 1 → 2\n"
)

LINE3_REPORT = """\
{
  "final_ledger": [
    2.0,
    2.0,
    0.0
  ],
  "lost_count": 0,
  "outcomes": [
    {
      "demand": 2.0,
      "index": 1,
      "max_energy": 1.0,
      "path": [
        0,
        1,
        2
      ],
      "receiver": 2,
      "resource_limited": false,
      "sender": 0
    }
  ],
  "params": {
    "bandwidth": 50.0,
    "hop_bound": 3,
    "max_power": 10.0,
    "mean_demand": 2.0,
    "node_count": 3,
    "path_loss_exponent": 2.0,
    "region": [
      10.0,
      10.0
    ],
    "request_rate": 1.0,
    "seed": 0,
    "threshold": null
  },
  "total_energy": 4.0,
  "variance": 0.05555555555555556
}
"""

# line3.yaml with `threshold: 0`: the only request is lost
LINE3_LOST_REPORT = """\
{
  "final_ledger": [
    0.0,
    0.0,
    0.0
  ],
  "lost_count": 1,
  "outcomes": [
    {
      "demand": 2.0,
      "index": 1,
      "max_energy": null,
      "path": null,
      "receiver": 2,
      "resource_limited": false,
      "sender": 0
    }
  ],
  "params": {
    "bandwidth": 50.0,
    "hop_bound": 3,
    "max_power": 10.0,
    "mean_demand": 2.0,
    "node_count": 3,
    "path_loss_exponent": 2.0,
    "region": [
      10.0,
      10.0
    ],
    "request_rate": 1.0,
    "seed": 0,
    "threshold": 0.0
  },
  "total_energy": 0.0,
  "variance": 0.0
}
"""

LINE3_SWEEP_CSV = (
    "axis_value,variance_mean,lost_mean,total_energy_mean,replications\n"
    "0.0,0.0,1.0,0.0,2\n"
    "5.0,0.05555555555555556,0.0,4.0,2\n"
    "inf,0.05555555555555556,0.0,4.0,2\n"
)

RANDOM_SCENARIO = """\
nodes: 6
region: [15, 15]
max_power: 1000
bandwidth: 100
hop_bound: 3
request_rate: 1.5
mean_demand: 2.0
seed: 4
"""


def test_run_golden_table(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(LINE3), "--out", str(out)]) == 0
    assert (out / TABLE_FILENAME).read_text(encoding="utf-8") == LINE3_TABLE
    assert capsys.readouterr().out == LINE3_TABLE


def test_run_and_loadcheck_write_only_their_output_to_fd_1(tmp_path, capfd, monkeypatch):
    # a stand-in that writes to file descriptor 1, as HiGHS does, before each
    # real HiGHS run: whatever the solver prints, fd 1 carries the output
    calls = []
    real = qostopo.milp._highs

    def noisy(cost, bounds, matrix, row_bounds, integrality, options):
        name = "continuous" if integrality is None else "binary"
        calls.append(name)
        os.write(1, f"{name} chatter on fd 1\n".encode())
        return real(cost, bounds, matrix, row_bounds, integrality, options)

    monkeypatch.setattr(qostopo.milp, "_highs", noisy)
    assert main(["run", "--scenario", str(LINE3), "--out", str(tmp_path / "out")]) == 0
    assert capfd.readouterr().out == LINE3_TABLE
    assert main(["loadcheck", "--scenario", str(LINE3)]) == 0
    assert capfd.readouterr().out == "L_max = 0.08\nOVERLOADED: no\n"
    # line3's one request has a single route, settled without the solver
    assert calls == ["continuous"]


# Thresholded, with hop bound 4: most of its eight admissions reach HiGHS,
# and on the HiGHS in scipy 1.17.1 one of those solves prints
# "HighsMipSolverData::transformNewIntegerFeasibleSolution tmpSolver.run();"
# straight to file descriptor 1, where capsys cannot see it. Whether a solve
# prints depends on the exact model; the test checks that it still does.
HIGHS_CHATTY_SCENARIO = """\
nodes: 10
region: [300, 300]
max_power: 180000
bandwidth: 200
hop_bound: 4
request_rate: 1.0
mean_demand: 10.0
threshold: 100000
seed: 134
"""


def test_run_writes_only_the_table_to_fd_1(tmp_path, capfd, monkeypatch):
    scenario = tmp_path / "chatty.yaml"
    scenario.write_text(HIGHS_CHATTY_SCENARIO)
    # the premise: with the redirect switched off, HiGHS writes to fd 1 here
    with monkeypatch.context() as patch:
        patch.setattr(qostopo.milp, "_stdout_silenced", contextlib.nullcontext)
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "loud")]) == 0
    table = (tmp_path / "loud" / TABLE_FILENAME).read_text(encoding="utf-8")
    assert table.startswith("λ_m = 10, Threshold = 100000,")
    assert capfd.readouterr().out != table, "HiGHS no longer prints on this scenario; find one that does"

    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert (out / TABLE_FILENAME).read_text(encoding="utf-8") == table
    assert capfd.readouterr().out == table


def test_run_golden_json_report(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(LINE3), "--out", str(out)]) == 0
    assert (out / REPORT_FILENAME).read_bytes() == LINE3_REPORT.encode()

    lost = tmp_path / "lost.yaml"
    lost.write_text(LINE3.read_text().replace("threshold: null", "threshold: 0"))
    assert main(["run", "--scenario", str(lost), "--out", str(tmp_path / "lost")]) == 0
    assert (tmp_path / "lost" / REPORT_FILENAME).read_bytes() == LINE3_LOST_REPORT.encode()
    # the loader keeps every byte, nulls included
    for golden in (LINE3_REPORT, LINE3_LOST_REPORT):
        assert report_to_json(*report_from_json(golden)) == golden


def test_run_json_report_round_trips(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(LINE3), "--out", str(out)]) == 0
    scenario = load_scenario(LINE3)
    report = run(scenario.params, network=scenario.network, requests=scenario.requests)
    text = (out / REPORT_FILENAME).read_text(encoding="utf-8")
    assert text == report_to_json(scenario.params, report)
    loaded_params, loaded_report = report_from_json(text)
    assert loaded_params == scenario.params
    assert loaded_report == report


def test_run_is_byte_identical_across_reruns(tmp_path):
    for name in ("a", "b"):
        assert main(["run", "--scenario", str(LINE3), "--out", str(tmp_path / name)]) == 0
    for filename in (TABLE_FILENAME, REPORT_FILENAME):
        assert (tmp_path / "a" / filename).read_bytes() == (tmp_path / "b" / filename).read_bytes()


def test_seed_override_changes_a_random_scenario(tmp_path):
    scn = tmp_path / "random.yaml"
    scn.write_text(RANDOM_SCENARIO)
    for name, seed in (("s4", None), ("s9", "9"), ("s9b", "9")):
        argv = ["run", "--scenario", str(scn), "--out", str(tmp_path / name)]
        if seed is not None:
            argv += ["--seed", seed]
        assert main(argv) == 0
    base = (tmp_path / "s4" / TABLE_FILENAME).read_bytes()
    nine = (tmp_path / "s9" / TABLE_FILENAME).read_bytes()
    again = (tmp_path / "s9b" / TABLE_FILENAME).read_bytes()
    assert nine != base
    assert nine == again


def test_empty_request_list_prints_header_only_table(tmp_path, capsys):
    scn = tmp_path / "empty.yaml"
    scn.write_text("nodes: 2\nregion: [5, 5]\nmax_power: 50\nbandwidth: 10\nhop_bound: 2\nrequests: []\n")
    assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert out == (
        "λ_m = 1, Threshold = inf, Hop count = 2, Variance = 0\n"
        "Req. # | λ_{s,d} | Sender | Receiver | Routing Path\n"
    )


def test_sweep_golden_csv(tmp_path, capsys):
    out = tmp_path / "out"
    argv = [
        "sweep", "--scenario", str(LINE3), "--out", str(out),
        "--axis", "threshold", "--values", "0,5,inf", "--replications", "2",
    ]
    assert main(argv) == 0
    assert (out / "sweep_threshold.csv").read_text(encoding="utf-8") == LINE3_SWEEP_CSV
    assert capsys.readouterr().out == LINE3_SWEEP_CSV
    # rerun lands on identical bytes
    assert main(argv) == 0
    assert (out / "sweep_threshold.csv").read_text(encoding="utf-8") == LINE3_SWEEP_CSV


def test_sweep_lambda_writes_axis_named_file(tmp_path):
    out = tmp_path / "out"
    argv = [
        "sweep", "--scenario", str(LINE3), "--out", str(out),
        "--axis", "lambda", "--values", "2,1", "--replications", "1",
    ]
    assert main(argv) == 0
    # line3.yaml scripts its request, so only the sorted axis column moves
    assert (out / "sweep_lambda.csv").read_text(encoding="utf-8") == (
        "axis_value,variance_mean,lost_mean,total_energy_mean,replications\n"
        "1.0,0.05555555555555556,0.0,4.0,1\n"
        "2.0,0.05555555555555556,0.0,4.0,1\n"
    )


def test_sweep_replications_default_comes_from_the_file(tmp_path, capsys):
    scn = tmp_path / "reps.yaml"
    scn.write_text(LINE3.read_text() + "replications: 3\n")
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(scn), "--out", str(out),
                 "--axis", "threshold", "--values", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(",3")


def test_loadcheck_not_overloaded(capsys):
    assert main(["loadcheck", "--scenario", str(LINE3)]) == 0
    assert capsys.readouterr().out == "L_max = 0.08\nOVERLOADED: no\n"


def test_loadcheck_overloaded_is_still_exit_zero(tmp_path, capsys):
    scn = tmp_path / "hot.yaml"
    scn.write_text(
        "nodes: 3\nregion: [10, 10]\nmax_power: 10\nbandwidth: 4\nhop_bound: 3\n"
        "coordinates: [[0, 0], [1, 0], [2, 0]]\n"
        "requests:\n  - {sender: 0, receiver: 2, demand: 5}\n"
    )
    assert main(["loadcheck", "--scenario", str(scn)]) == 0
    assert capsys.readouterr().out == "L_max = 2.5\nOVERLOADED: yes\n"


def test_exit_codes_for_structural_problems(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert main(["run", "--scenario", str(missing), "--out", str(tmp_path / "o")]) == 1

    bad_yaml = tmp_path / "bad.yaml"
    bad_yaml.write_text("{unclosed: [\n")
    assert main(["run", "--scenario", str(bad_yaml), "--out", str(tmp_path / "o")]) == 1

    unknown = tmp_path / "unknown.yaml"
    unknown.write_text(LINE3.read_text() + "mystery: 1\n")
    assert main(["run", "--scenario", str(unknown), "--out", str(tmp_path / "o")]) == 1

    assert main(["sweep", "--scenario", str(LINE3), "--out", str(tmp_path / "o"),
                 "--axis", "threshold", "--values", "1,bogus"]) == 1
    capsys.readouterr()


def test_exit_codes_for_unusable_values(tmp_path, capsys):
    tiny = tmp_path / "tiny.yaml"
    tiny.write_text("nodes: 1\nregion: [5, 5]\nmax_power: 5\nbandwidth: 5\nhop_bound: 1\n")
    assert main(["run", "--scenario", str(tiny), "--out", str(tmp_path / "o")]) == 2

    minus_inf = tmp_path / "minus_inf.yaml"
    minus_inf.write_text(LINE3.read_text().replace("threshold: null", "threshold: -.inf"))
    assert main(["run", "--scenario", str(minus_inf), "--out", str(tmp_path / "o")]) == 2

    assert main(["sweep", "--scenario", str(LINE3), "--out", str(tmp_path / "o"),
                 "--axis", "lambda", "--values", "0,1"]) == 2
    assert main(["sweep", "--scenario", str(LINE3), "--out", str(tmp_path / "o"),
                 "--axis", "threshold", "--values", "5", "--replications", "0"]) == 2
    capsys.readouterr()


def test_exit_code_for_internal_solver_trouble(tmp_path, monkeypatch, capsys):
    def exploding_run(params, network=None, requests=None):
        raise SolverLimitError("node budget exhausted")

    monkeypatch.setattr(cli, "run", exploding_run)
    assert main(["run", "--scenario", str(LINE3), "--out", str(tmp_path / "o")]) == 3
    capsys.readouterr()


def test_usage_problems_exit_one(capsys):
    assert main([]) == 1
    assert main(["run"]) == 1  # missing required flags
    assert main(["run", "--scenario", str(LINE3), "--out", "x", "--bogus"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out
