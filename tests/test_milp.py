"""Solver wrapper proofs.

1. model building and introspection, row by row and in bulk blocks,
   including every rejection path
2. hand-checkable LPs and MILPs hit their known optima exactly
3. definite statuses: infeasible, unbounded, empty models, empty rows
4. resource limits surface as RESOURCE_LIMIT, never as an exception; the
   node-limit fixture needs more than one branch-and-bound node
5. determinism: identical models yield identical value vectors
6. check_solution accepts solver output and flags planted violations
7. seeded random models agree with exhaustive enumeration
8. lp_text renders every section of the model
9. a HiGHS "Solve error" is retried without presolve, a second failure
   raises SolverError (CLI exit code 3), and HiGHS's console lines stay
   out of stdout; missing HiGHS bindings name the installed scipy
10. scipy loads on the first solve, not on import, and a stand-in for the
    HiGHS run patched onto the module before that solve is the one called;
    PyYAML loads with the first scenario file, not on import
11. the direct HiGHS call hands HiGHS exactly the options and model that
    scipy's milp/linprog wrappers did, and gets the same answers back
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.optimize._highspy import _core as highs

import qostopo.cli
import qostopo.milp
from oracles import enumerate_milp
from qostopo import (
    MilpModel,
    ModelError,
    SolveLimits,
    SolverError,
    Status,
    check_solution,
    lp_text,
    solve,
)
from qostopo.cli import main


def test_variable_ids_are_dense_and_kinds_tracked():
    m = MilpModel()
    a = m.add_continuous(lower=-1.0, upper=4.0)
    b = m.add_binary()
    c = m.add_continuous(upper=9.0)
    d = m.add_binary()
    assert [a, b, c, d] == [0, 1, 2, 3]
    assert m.num_variables == 4
    assert m.binary_ids == [1, 3]
    r = m.add_constraint({a: 1.0, b: 2.0}, "<=", 5.0)
    assert r == 0 and m.num_constraints == 1


def test_building_rejections():
    m = MilpModel()
    x = m.add_continuous()
    with pytest.raises(ModelError):
        m.add_continuous(lower=2.0, upper=1.0)
    with pytest.raises(ModelError):
        m.add_continuous(lower=math.nan)
    with pytest.raises(ModelError):
        m.add_constraint({x + 1: 1.0}, "<=", 0.0)
    with pytest.raises(ModelError):
        m.add_constraint({x: math.nan}, "<=", 0.0)
    with pytest.raises(ModelError):
        m.add_constraint({x: math.inf}, "<=", 0.0)
    with pytest.raises(ModelError):
        m.add_constraint({x: 1.0}, "<", 0.0)
    with pytest.raises(ModelError):
        m.add_constraint({x: 1.0}, "<=", math.inf)
    with pytest.raises(ModelError):
        m.set_objective({99: 1.0})


def _rows_of(model):
    return [(dict(r.coefficients), r.sense, r.rhs) for r in model.constraints]


def test_bulk_block_equals_row_by_row_build():
    one = MilpModel()
    x = one.add_binary()
    y = one.add_continuous(-1.0, 2.0)
    z = one.add_continuous()
    one.add_constraint({y: 1.5, x: -2.0}, "<=", 3.0)
    one.add_constraint({}, ">=", -1.0)
    one.add_constraint({z: 1.0, x: 1.0, y: -0.5}, "=", 0.0)

    bulk = MilpModel()
    bulk.add_binary()
    assert bulk.add_block(
        lower=[-1.0, 0.0], upper=[2.0, np.inf],
        rows=[0, 0, 2, 2, 2], cols=[1, 0, 2, 0, 1], coeffs=[1.5, -2.0, 1.0, 1.0, -0.5],
        senses=["<=", ">=", "="], rhs=[3.0, -1.0, 0.0],
    ) == (1, 0)
    assert bulk.variables == one.variables and bulk.binary_ids == one.binary_ids == [0]
    assert _rows_of(bulk) == _rows_of(one)
    assert lp_text(bulk) == lp_text(one)
    # the views are read-only
    with pytest.raises(TypeError):
        bulk.constraints[0].coefficients[1] = 9.0
    # rows keep numbering on from what is there, in either order of use
    assert bulk.add_constraint({x: 1.0}, "<=", 1.0) == 3
    assert bulk.add_block(rows=[0], cols=[2], coeffs=[1.0], senses=["<="], rhs=[1.0]) == (3, 4)
    assert bulk.num_constraints == 5


def test_bulk_building_rejections():
    m = MilpModel()
    m.add_continuous()
    good = dict(lower=[0.0], upper=[1.0], rows=[0, 0], cols=[0, 1], coeffs=[1.0, 2.0], senses=["<="], rhs=[1.0])
    bad_inputs = [
        dict(coeffs=[1.0, math.nan]),
        dict(coeffs=[math.inf, 2.0]),
        dict(coeffs=[1.0, -math.inf]),
        dict(cols=[0, 2]),  # the block adds only variable 1
        dict(cols=[-1, 1]),
        dict(senses=["<"]),
        dict(senses=["<=", "="]),
        dict(rhs=[math.inf]),
        dict(rows=[0, 1]),  # the block has one row
        dict(cols=[1, 1]),  # one variable twice in a row
        dict(lower=[math.nan]),
        dict(lower=[2.0]),
        dict(cols=[0.0, 1.0]),
    ]
    for change in bad_inputs:
        with pytest.raises(ModelError):
            m.add_block(**{**good, **change})
        # nothing of a rejected block is kept
        assert (m.num_variables, m.num_constraints) == (1, 0), change
    assert m.add_block(**good) == (1, 0)


def test_minimize_single_variable_lp():
    m = MilpModel()
    x = m.add_continuous()
    m.add_constraint({x: 1.0}, ">=", 3.0)
    m.set_objective({x: 1.0})
    sol = solve(m)
    assert sol.status is Status.OPTIMAL
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)
    assert sol.value(x) == pytest.approx(3.0, abs=1e-9)
    assert sol.mip_node_count is None  # a continuous model does not branch


def test_lp_with_equality_row():
    # min x + 2y  s.t.  x + y = 4, x <= 1  ->  x=1, y=3, objective 7
    m = MilpModel()
    x = m.add_continuous()
    y = m.add_continuous()
    m.add_constraint({x: 1.0, y: 1.0}, "=", 4.0)
    m.add_constraint({x: 1.0}, "<=", 1.0)
    m.set_objective({x: 1.0, y: 2.0})
    sol = solve(m)
    assert sol.status is Status.OPTIMAL
    assert sol.objective_value == pytest.approx(7.0, abs=1e-8)
    assert sol.value(x) == pytest.approx(1.0, abs=1e-8)
    assert sol.value(y) == pytest.approx(3.0, abs=1e-8)


def test_lower_bound_drives_optimum():
    m = MilpModel()
    x = m.add_continuous(lower=-5.0, upper=10.0)
    m.set_objective({x: 1.0})
    sol = solve(m)
    assert sol.status is Status.OPTIMAL
    assert sol.objective_value == pytest.approx(-5.0, abs=1e-9)


def test_small_knapsack_hits_integer_optimum():
    # max 2a + 3b + 4c  s.t.  5a + 4b + 3c <= 7  ->  pick b and c, value 7
    m = MilpModel()
    a, b, c = m.add_binary(), m.add_binary(), m.add_binary()
    m.add_constraint({a: 5.0, b: 4.0, c: 3.0}, "<=", 7.0)
    m.set_objective({a: -2.0, b: -3.0, c: -4.0})
    sol = solve(m)
    assert sol.status is Status.OPTIMAL
    assert sol.objective_value == pytest.approx(-7.0, abs=1e-9)
    assert sol.value(a) == pytest.approx(0.0, abs=1e-6)
    assert sol.value(b) == pytest.approx(1.0, abs=1e-6)
    assert sol.value(c) == pytest.approx(1.0, abs=1e-6)
    assert isinstance(sol.mip_node_count, int) and sol.mip_node_count >= 0


def test_binary_equality_row():
    m = MilpModel()
    x = m.add_binary()
    y = m.add_binary()
    m.add_constraint({x: 1.0, y: 1.0}, "=", 1.0)
    m.set_objective({x: 1.0, y: -1.0})
    sol = solve(m)
    assert sol.status is Status.OPTIMAL
    assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)
    assert (sol.value(x), sol.value(y)) == pytest.approx((0.0, 1.0), abs=1e-6)


def test_infeasible_model_has_no_values():
    m = MilpModel()
    x = m.add_continuous()
    m.add_constraint({x: 1.0}, "<=", -1.0)
    sol = solve(m)
    assert sol.status is Status.INFEASIBLE
    assert sol.values is None and sol.objective_value is None
    with pytest.raises(ValueError):
        sol.value(x)


def test_unbounded_model():
    m = MilpModel()
    x = m.add_continuous()
    m.set_objective({x: -1.0})
    sol = solve(m)
    assert sol.status is Status.UNBOUNDED

    m = MilpModel()
    x, y = m.add_binary(), m.add_continuous()
    m.add_constraint({x: 1.0, y: -1.0}, "<=", 0.5)
    m.set_objective({x: 1.0, y: -1.0})
    sol = solve(m)
    assert sol.status is Status.UNBOUNDED and sol.values is None


def test_empty_model_is_trivially_optimal():
    sol = solve(MilpModel())
    assert sol.status is Status.OPTIMAL
    assert sol.objective_value == 0.0
    assert sol.values is not None and sol.values.shape == (0,)


def test_empty_rows_resolve_at_solve_time():
    m = MilpModel()
    x = m.add_continuous(upper=2.0)
    m.add_constraint({}, "<=", 1.0)  # vacuous
    m.set_objective({x: -1.0})
    assert solve(m).status is Status.OPTIMAL

    bad = MilpModel()
    y = bad.add_continuous()
    bad.add_constraint({}, ">=", 1.0)  # 0 >= 1 can never hold
    bad.set_objective({y: 1.0})
    assert solve(bad).status is Status.INFEASIBLE


def _market_split():
    """Market-split instance (Cornuéjols & Dawande 1998) with slack variables.

    Each of 3 rows asks a subset of 20 items to hit half the row's total
    weight; the objective is the total absolute miss. The LP relaxation is
    weak on this family, so branch-and-bound needs thousands of nodes (5120
    with the HiGHS in scipy 1.17.1) and a one-node budget binds.
    """
    rng = np.random.default_rng(0)
    weights = rng.integers(0, 100, size=(3, 20))
    m = MilpModel()
    xs = [m.add_binary() for _ in range(20)]
    slacks = []
    for row in weights:
        over, under = m.add_continuous(), m.add_continuous()
        terms = {x: float(w) for x, w in zip(xs, row)}
        terms[over] = -1.0
        terms[under] = 1.0
        m.add_constraint(terms, "=", float(row.sum() // 2))
        slacks += [over, under]
    m.set_objective({s: 1.0 for s in slacks})
    return m


def test_node_budget_reports_resource_limit():
    sol = solve(_market_split(), SolveLimits(max_nodes=1))
    assert sol.status is Status.RESOURCE_LIMIT
    # same model solves fine without the artificial cap, and only by
    # branching: a HiGHS that closed it at the root would leave the one-node
    # budget nothing to bind, and this test nothing to check
    uncapped = solve(_market_split())
    assert uncapped.status is Status.OPTIMAL
    assert uncapped.mip_node_count > 1, f"market split closed in {uncapped.mip_node_count} node(s)"


def test_iteration_budget_reports_resource_limit():
    rng = np.random.default_rng(3)
    m = MilpModel()
    xs = [m.add_continuous(upper=100.0) for _ in range(80)]
    for _ in range(60):
        row = rng.uniform(-1.0, 1.0, size=80)
        m.add_constraint({xs[i]: float(row[i]) for i in range(80)}, "<=", 5.0)
    m.set_objective({xs[i]: float(rng.uniform(-1.0, 1.0)) for i in range(80)})
    capped = solve(m, SolveLimits(max_lp_iterations=3))
    assert capped.status is Status.RESOURCE_LIMIT and capped.values is None
    assert solve(m).status is Status.OPTIMAL


def test_solve_limits_validation():
    with pytest.raises(ValueError):
        SolveLimits(max_nodes=0)
    with pytest.raises(ValueError):
        SolveLimits(max_lp_iterations=-1)


def _random_model(rng):
    """Small random model; roughly half pure-binary, half mixed."""
    m = MilpModel()
    n_bin = int(rng.integers(1, 8))
    n_cont = 0 if rng.random() < 0.5 else int(rng.integers(1, 4))
    xs = [m.add_binary() for _ in range(n_bin)]
    for _ in range(n_cont):
        lo = float(rng.uniform(-3.0, 0.0))
        xs.append(m.add_continuous(lower=lo, upper=lo + float(rng.uniform(1.0, 6.0))))
    for _ in range(int(rng.integers(1, 7))):
        picks = rng.choice(len(xs), size=int(rng.integers(1, len(xs) + 1)), replace=False)
        sense = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        rhs = float(rng.uniform(-4.0, 6.0))
        if sense == "=" and rng.random() < 0.7:
            sense = "<="  # keep a healthy share of feasible instances
        m.add_constraint({xs[int(i)]: float(rng.uniform(-3.0, 3.0)) for i in picks}, sense, rhs)
    m.set_objective({x: float(rng.uniform(-3.0, 3.0)) for x in xs})
    return m


def test_random_models_match_enumeration():
    rng = np.random.default_rng(2024)
    optima = 0
    for _ in range(30):
        m = _random_model(rng)
        sol = solve(m)
        best = enumerate_milp(m)
        if sol.status is Status.INFEASIBLE:
            assert best is None
        else:
            assert sol.status is Status.OPTIMAL
            assert best is not None
            assert sol.objective_value == pytest.approx(best, abs=1e-6)
            optima += 1
    assert optima >= 10  # the generator is tuned to keep plenty solvable


def test_determinism_of_values():
    rng = np.random.default_rng(77)
    for _ in range(5):
        m = _random_model(rng)
        first = solve(m)
        second = solve(m)
        assert first.status is second.status
        if first.values is None:
            assert second.values is None
        else:
            assert np.array_equal(first.values, second.values)


def test_check_solution_accepts_and_rejects():
    m = MilpModel()
    x = m.add_binary()
    y = m.add_continuous(upper=4.0)
    m.add_constraint({x: 2.0, y: 1.0}, "<=", 5.0)
    m.add_constraint({y: 1.0}, ">=", 1.0)
    m.set_objective({x: -1.0, y: 1.0})
    sol = solve(m)
    assert sol.status is Status.OPTIMAL
    assert check_solution(m, sol.values) == []

    assert check_solution(m, [0.5, 1.0]) != []  # fractional binary
    assert check_solution(m, [1.0, 9.0]) != []  # bound and row violations
    wrong_shape = check_solution(m, [1.0])
    assert len(wrong_shape) == 1 and "shape" in wrong_shape[0]
    assert check_solution(m, [1.0, math.nan]) != []
    # loose tolerances make the fractional value acceptable
    assert check_solution(m, [0.5, 1.0], integrality_tol=0.5) == []

    # 300 rows of every sense, all met but row 217 (a ">=" row); the message
    # names that row in the usual format. Values and coefficients are binary
    # fractions, so every left-hand side is exact
    big = MilpModel()
    xs = [big.add_continuous(upper=10.0) for _ in range(30)]
    point = np.arange(30) / 8.0
    for r in range(300):
        a, b = r % 30, (7 * r + 3) % 30
        sense = ("<=", ">=", "=")[r % 3]
        rhs = point[a] + 0.5 * point[b] + {"<=": 0.25, ">=": -0.25, "=": 0.0}[sense]
        big.add_constraint({xs[a]: 1.0, xs[b]: 0.5}, sense, rhs + (1.0 if r == 217 else 0.0))
    assert check_solution(big, point) == ["constraint 217: 2.25 >= 3.0 violated"]
    point[29] = 10.5
    assert check_solution(big, point)[0] == "variable 29 = 10.5 outside [0.0, 10.0]"


def test_lp_text_sections():
    m = MilpModel()
    x = m.add_continuous(lower=-1.0)
    b = m.add_binary()
    m.add_constraint({x: 1.0, b: -2.5}, ">=", 0.5)
    m.set_objective({x: 1.0})
    text = lp_text(m)
    assert "Minimize" in text and "Subject To" in text
    assert "1 x0" in text and "- 2.5 x1" in text
    assert "-1 <= x0 <= +inf" in text
    assert "Binary" in text and " x1" in text
    assert text.endswith("End\n")


def _presolve_fault_model():
    """Model #68 of the acceptance suite's seed-8121 batch, as lp_text prints it.

    It is infeasible, yet HiGHS's presolve ends on "Solve error" and prints
    a raw diagnostic line to fd 1.
    """
    m = MilpModel()
    x = [m.add_binary() for _ in range(7)]
    m.add_constraint(
        {x[0]: -1.90412828735, x[3]: 1.84589941079, x[4]: -1.70727261726, x[6]: -2.93818017539},
        "=",
        0.301405968234,
    )
    m.add_constraint({x[4]: 1.45628159738}, ">=", -4.46737219524)
    m.add_constraint(
        {
            x[0]: -1.41388676386,
            x[1]: 2.31761867189,
            x[2]: -2.54397426887,
            x[3]: -0.789430263932,
            x[4]: 0.325013663027,
        },
        "<=",
        -0.451772492292,
    )
    m.set_objective(
        {
            x[0]: 1.22666844853,
            x[1]: 1.16431687973,
            x[2]: -1.3200216941,
            x[3]: 2.69929053559,
            x[4]: -2.72735253241,
            x[5]: -0.319765012936,
            x[6]: -2.1147678374,
        }
    )
    return m


def test_presolve_solve_error_is_retried_to_a_definite_status(capfd):
    m = _presolve_fault_model()
    assert enumerate_milp(m) is None
    sol = solve(m)
    assert sol.status is Status.INFEASIBLE
    assert sol.values is None and sol.objective_value is None
    assert capfd.readouterr().out == ""


def _fake_highs(status, calls):
    """A stand-in for one HiGHS run that ends on ``status`` with no solution."""

    def fake(cost, bounds, matrix, row_bounds, integrality, options):
        calls.append(options["presolve"] == "on")
        return status, [], math.inf, 0

    return fake


def test_repeated_solve_error_raises_solver_error(monkeypatch):
    calls = []
    monkeypatch.setattr(qostopo.milp, "_highs", _fake_highs(highs.HighsModelStatus.kSolveError, calls))
    with pytest.raises(SolverError, match="Solve error"):
        solve(_presolve_fault_model())
    assert calls == [True, False]
    assert issubclass(SolverError, RuntimeError)
    monkeypatch.undo()

    # HiGHS refuses a coefficient of 1e20 whether or not it presolves; the
    # model is feasible (y = 1e-20), so no status but an error is true of it
    m = MilpModel()
    y, z = m.add_continuous(), m.add_binary()
    m.add_constraint({y: 1e20, z: 1.0}, ">=", 1.0)
    m.set_objective({y: 1.0})
    with pytest.raises(SolverError, match="Model error"):
        solve(m)


def test_limit_stop_is_not_retried(monkeypatch):
    calls = []
    monkeypatch.setattr(qostopo.milp, "_highs", _fake_highs(highs.HighsModelStatus.kSolutionLimit, calls))
    assert solve(_presolve_fault_model()).status is Status.RESOURCE_LIMIT
    assert calls == [True]


def test_missing_highs_bindings_name_the_installed_scipy(monkeypatch):
    import scipy

    monkeypatch.setattr(qostopo.milp, "highs", None)
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    with pytest.raises(ImportError, match=f"installed scipy is {scipy.__version__}"):
        solve(_presolve_fault_model())


def _wrapper_solve(model, limits):
    """The solve as it ran through scipy's milp and linprog wrappers, kept as
    the reference for the direct HiGHS call. Returns the status, values and
    node count."""
    n = model.num_variables
    row, col, coeff, sense, rhs = model._row_arrays()
    filled = np.bincount(row, minlength=rhs.size) > 0
    holds = np.where(sense == 0, 0.0 <= rhs, np.where(sense == 1, 0.0 >= rhs, rhs == 0.0))
    if (~filled & ~holds).any():
        return "infeasible", None, None
    c_vec = np.zeros(n)
    for var, value in model.objective.items():
        c_vec[var] = value
    lower, upper, binary = model._column_arrays()
    sense, rhs = sense[filled], rhs[filled]
    row_lb, row_ub = np.where(sense == 0, -np.inf, rhs), np.where(sense == 1, np.inf, rhs)
    a_mat = sparse.csc_array((coeff, (np.cumsum(filled)[row] - 1, col)), shape=(rhs.size, n))
    tolerances = {"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9}
    if binary.any():
        def backend(presolve):
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", message="Unrecognized options detected")
                return milp(
                    c_vec, integrality=binary.astype(int), bounds=Bounds(lower, upper),
                    constraints=[LinearConstraint(a_mat, row_lb, row_ub)] if rhs.size else [],
                    options={"mip_rel_gap": 0.0, "node_limit": limits.max_nodes, "presolve": presolve,
                             "mip_feasibility_tolerance": 1e-9, **tolerances},
                )
    else:
        a_csr = a_mat.tocsr()
        le, ge, eq = (np.flatnonzero(sense == k) for k in range(3))

        def backend(presolve):
            return linprog(
                c_vec, A_ub=sparse.vstack([a_csr[le], -a_csr[ge]], format="csr"),
                b_ub=np.concatenate([rhs[le], -rhs[ge]]), A_eq=a_csr[eq], b_eq=rhs[eq],
                bounds=np.column_stack([lower, upper]), method="highs",
                options={"maxiter": limits.max_lp_iterations, "presolve": presolve, **tolerances},
            )

    res = backend(True)
    limit = "limit" in res.message.lower()
    if res.status == 4 and not limit:
        res = backend(False)
        limit = "limit" in res.message.lower()
    status = {0: "optimal", 1: "resource_limit", 2: "infeasible", 3: "unbounded"}.get(res.status)
    status = status or ("resource_limit" if limit else "error")
    nodes = getattr(res, "mip_node_count", None) if binary.any() else None
    return status, res.x, None if nodes is None else int(nodes)


def test_direct_highs_call_matches_scipy_wrappers(monkeypatch):
    from qostopo import ScenarioParams, build_load_lp, formulation, generate_scenario, simulate

    option_names = [name for name in dir(highs.HighsOptions()) if not name.startswith("_")]
    inputs = []

    class Recording(highs._Highs):
        """Records every option and the whole model that HiGHS is handed."""

        def passOptions(self, options):
            inputs.append({name: repr(getattr(options, name)) for name in option_names})
            return super().passOptions(options)

        def passModel(self, lp):
            a = lp.a_matrix_
            arrays = (lp.col_cost_, lp.col_lower_, lp.col_upper_, lp.row_lower_, lp.row_upper_,
                      a.start_, a.index_, a.value_, [int(kind) for kind in lp.integrality_])
            sizes = (lp.num_col_, lp.num_row_, a.num_col_, a.num_row_, a.format_, lp.sense_, lp.offset_)
            inputs.append((sizes, [np.asarray(v).tobytes() for v in arrays]))
            return super().passModel(lp)

    monkeypatch.setattr(highs, "_Highs", Recording)

    def compared(model, limits=None):
        got = solve(model, limits)
        direct = inputs.copy()
        inputs.clear()
        status, values, nodes = _wrapper_solve(model, limits or SolveLimits())
        assert inputs == direct and direct
        inputs.clear()
        assert got.status.value == status
        assert values is None if got.values is None else np.array_equal(got.values, values)
        assert got.mip_node_count == nodes
        solved.append((model.binary_ids != [], got.status))
        return got

    # field15's demand and hop bound on the benchmark's fields: load LPs on
    # 5 to 20 nodes, then every admission of 8-node runs with no fairness
    # threshold (all admitted) and a tight one (most lost)
    field = dict(path_loss_exponent=2.0, max_power=65000.0, bandwidth=200.0, request_rate=1.5,
                 mean_demand=10.0, hop_bound=3)
    solved = []
    for node_count, seed in [(5, 1), (8, 2), (12, 3), (20, 4)]:
        net, reqs = generate_scenario(ScenarioParams(node_count=node_count, region=(180.0, 180.0), seed=seed, **field))
        compared(build_load_lp(net, reqs))
    assert solved == [(False, Status.OPTIMAL)] * 4

    monkeypatch.setattr(formulation, "solve", compared)
    field8 = dict(field, node_count=8, region=(100.0, 100.0), max_power=20000.0, bandwidth=60.0, request_rate=1.0)
    for threshold in (None, 2e3):
        for seed in range(6):
            simulate.run(ScenarioParams(threshold=threshold, seed=9_200_000 + seed, **field8))
    statuses = [status for binary, status in solved[4:] if binary]
    assert len(statuses) == len(solved) - 4 >= 50
    assert {Status.OPTIMAL, Status.INFEASIBLE} <= set(statuses)


def test_cli_maps_solver_error_to_exit_code_3(monkeypatch, tmp_path, capsys):
    def failing_run(*args, **kwargs):
        raise SolverError("solver returned an unexpected result: Solve error")

    monkeypatch.setattr(qostopo.cli, "run", failing_run)
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "line3.yaml"
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 3
    assert "Solve error" in capsys.readouterr().err


_IMPORT_BOUNDARY_SCRIPT = """
import contextlib, io, json, sys

def scipy_loaded():
    return sorted(m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules)

seen = {}
import qostopo
import qostopo.milp
from qostopo import MilpModel, NetworkModel, Request, Status, generate_scenario, load_scenario, solve, solve_load_lp
from qostopo.cli import main
seen["import"] = scipy_loaded()
seen["yaml_on_import"] = "yaml" in sys.modules
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    seen["help_exit"] = main(["--help"])
    seen["usage_exit"] = main([])
seen["cli"] = scipy_loaded()
scenario = load_scenario(sys.argv[1])
seen["yaml_on_load"] = "yaml" in sys.modules
generate_scenario(scenario.params)
seen["scenario"] = scipy_loaded()

m = MilpModel()
x = m.add_binary()
m.add_constraint({x: 1.0}, ">=", 0.5)
m.set_objective({x: 1.0})

calls = []
def fake_highs(cost, bounds, matrix, row_bounds, integrality, options):
    calls.append(options["presolve"] == "on")
    return qostopo.milp.highs.HighsModelStatus.kInfeasible, [], float("inf"), 0
real_highs = qostopo.milp._highs
qostopo.milp._highs = fake_highs
seen["unbound"] = qostopo.milp.highs is None
seen["fake_status"] = solve(m).status.value
seen["first_solve"] = scipy_loaded()
seen["fake_calls"] = calls
seen["fake_kept"] = qostopo.milp._highs is fake_highs

qostopo.milp._highs = real_highs
qostopo.milp.highs = None
net = NetworkModel([[0.0, 0.0], [1.0, 0.0]], max_power=10.0, bandwidth=50.0)
seen["load_lp_utilization"] = solve_load_lp(net, [Request(0, 1, 4.0, 1)]).max_utilization
seen["reloaded_status"] = solve(m).status.value
seen["reloaded_is_scipy"] = qostopo.milp.highs.__name__.startswith("scipy.optimize")
print(json.dumps(seen))
"""


def test_scipy_loads_on_first_solve_and_keeps_patched_names():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_BOUNDARY_SCRIPT, str(root / "scenarios" / "field15.yaml")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["import"] == seen["cli"] == seen["scenario"] == []
    assert not seen["yaml_on_import"] and seen["yaml_on_load"]
    assert (seen["help_exit"], seen["usage_exit"]) == (0, 1)
    assert seen["unbound"] and seen["first_solve"] == ["scipy.optimize", "scipy.sparse"]
    assert seen["fake_status"] == "infeasible" and seen["fake_calls"] == [True]
    assert seen["load_lp_utilization"] == pytest.approx(0.16, abs=1e-9)
    assert seen["fake_kept"]
    assert seen["reloaded_status"] == "optimal" and seen["reloaded_is_scipy"]
