"""Solver wrapper proofs.

1. model building and introspection, row by row and in bulk blocks (also
   blocks whose triplets come out of row order), including every rejection
   path; each builder refuses what HiGHS would refuse or read as infinite,
   and bool or float variable ids, and a refused call leaves the model as it
   was; a model keeps copies of a block's arrays and grows past them by
   copies, so arrays read before an append keep their values; SolveLimits
   takes only integers in HiGHS's option range
2. hand-checkable LPs and MILPs hit their known optima exactly
3. definite statuses: infeasible, unbounded, empty models, empty rows
4. resource limits surface as RESOURCE_LIMIT, never as an exception; the
   node-limit fixture needs more than one branch-and-bound node
5. determinism: identical models yield identical value vectors
6. check_solution accepts solver output and flags planted violations
7. seeded random models agree with exhaustive enumeration
8. lp_text renders every section of the model
9. a HiGHS "Solve error" is retried with the other presolve setting
   (MILPs presolve first, LPs last), a second failure raises SolverError
   (CLI exit code 3), a limit stop is never retried, and HiGHS's console
   lines stay out of stdout; missing HiGHS bindings name the installed scipy
10. HiGHS's bindings load on the first solve, not on import, without
    scipy.optimize, which imports later in the same process and reuses
    them; a stand-in for the HiGHS run patched onto the module before that
    solve is the one called, and a stand-in _Highs class patched onto the
    bindings serves the next run; PyYAML loads with the first scenario file
11. the direct HiGHS call passes the matrix column-wise, and for MILPs HiGHS
    then holds exactly the options and model (column-wise matrix included)
    that scipy's milp wrapper gave it, and gives the same answers back (the
    topology models of seeded admissions); LPs
    reach linprog's status and objective; arrays that disagree in size are
    refused before HiGHS is reached. One HiGHS instance serves the MILP
    runs, handed its options and model each time, and answers as a fresh
    one does through interleaved MILPs, LPs, infeasible models, limit stops
    and a retried "Solve error"; it is let go after an LP run or such an
    error, and SolverError reads its status text from the instance the
    next run uses
12. solve and check_solution read the model's storage without copying it,
    and the model can still grow after both and solve again
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
    # variable ids are integers, not bools or floats that would read as one
    for var in (False, 0.0, 0.5):
        with pytest.raises(ModelError):
            m.add_constraint({var: 1.0}, "<=", 0.0)
        with pytest.raises(ModelError):
            m.set_objective({var: 1.0})
    assert m.num_constraints == 0 and m.objective == {}


def test_add_continuous_refuses_bounds_highs_reads_otherwise():
    m = MilpModel()
    for lower, upper in [(0.0, 1e20), (-1e20, 0.0), (2e20, 3e20), (-3e20, -2e20),
                         (math.inf, math.inf), (-math.inf, -math.inf), (0.0, -math.inf)]:
        with pytest.raises(ModelError):
            m.add_continuous(lower, upper)
    assert m.num_variables == 0
    # the largest finite bounds HiGHS takes as given, and infinite ones on their own side
    x = m.add_continuous(-9.99e19, 9.99e19)
    m.add_continuous(-math.inf, math.inf)
    m.set_objective({x: -1.0})
    sol = solve(m)
    assert sol.status is Status.OPTIMAL and sol.objective_value == -9.99e19


def test_add_constraint_refuses_coefficients_and_rhs_highs_cannot_take():
    m = MilpModel()
    x, y = m.add_continuous(), m.add_binary()
    for coefficients, rhs in [({x: 1e15}, 1.0), ({y: 1.0, x: -2e15}, 1.0), ({x: 1.0}, 1e20), ({x: 1.0}, -5e20)]:
        with pytest.raises(ModelError):
            m.add_constraint(coefficients, ">=", rhs)
    assert m.num_constraints == 0 and m._row_arrays()[0].size == 0
    m.add_constraint({x: 9.99e14, y: 1.0}, ">=", 9.99e19)
    m.set_objective({x: 1.0})
    sol = solve(m)
    assert sol.status is Status.OPTIMAL and check_solution(m, sol.values) == []


def test_add_block_refuses_what_highs_cannot_take_and_keeps_nothing():
    m = MilpModel()
    m.add_continuous()
    good = dict(lower=[0.0], upper=[1.0], rows=[0, 0], cols=[0, 1], coeffs=[1.0, 2.0], senses=["<="], rhs=[1.0])
    for change in [dict(coeffs=[1.0, 1e15]), dict(coeffs=[-1e16, 2.0]), dict(rhs=[1e20]), dict(rhs=[-1e21]),
                   dict(lower=[1e20], upper=[2e20]), dict(lower=[-1e20]), dict(upper=[1e20]),
                   dict(lower=[math.inf], upper=[math.inf]), dict(lower=[-math.inf], upper=[-math.inf])]:
        with pytest.raises(ModelError):
            m.add_block(**{**good, **change})
        assert (m.num_variables, m.num_constraints) == (1, 0), change
    assert m.add_block(**{**good, "coeffs": [9.99e14, -9.99e14], "rhs": [-9.99e19], "upper": [math.inf]}) == (1, 0)


def test_set_objective_refuses_costs_highs_reads_as_infinite():
    m = MilpModel()
    x = m.add_continuous(0.0, 1.0)
    m.set_objective({x: 2.0})
    for cost in (1e20, -1e20, math.inf, math.nan):
        with pytest.raises(ModelError):
            m.set_objective({x: cost})
    assert m.objective == {x: 2.0}
    # a cost may exceed the largest matrix coefficient
    m.set_objective({x: -9.99e19})
    assert solve(m).objective_value == -9.99e19


def _rows_of(model):
    return [(list(r.coefficients.items()), r.sense, r.rhs) for r in model.constraints]


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

    # a block whose triplets come out of row order: each row keeps its terms
    # in the order given, as if added row by row
    one.add_constraint({x: 1.0}, "<=", 1.0)
    one.add_constraint({z: 1.0}, "<=", 1.0)
    one.add_constraint({y: 1.0, x: 1.0}, "=", 1.0)
    one.add_constraint({}, "<=", 4.0)
    one.add_constraint({z: -1.0, x: 2.0, y: 0.5}, ">=", -1.0)
    assert bulk.add_block(
        rows=[2, 0, 2, 0, 2], cols=[2, 1, 0, 0, 1], coeffs=[-1.0, 1.0, 2.0, 1.0, 0.5],
        senses=["=", "<=", ">="], rhs=[1.0, 4.0, -1.0],
    ) == (3, 5)
    assert _rows_of(bulk) == _rows_of(one)
    assert lp_text(bulk) == lp_text(one)
    one.set_objective({x: -1.0, y: 1.0, z: 1.0})
    bulk.set_objective(one.objective)
    for point in ([1.0, 0.0, 1.0], [1.0, 0.0, 3.0], [0.0, 1.0, 0.0]):
        assert check_solution(bulk, point) == check_solution(one, point)
    assert check_solution(one, [1.0, 0.0, 3.0]) == ["constraint 2: 4.0 = 0.0 violated",
                                                    "constraint 4: 3.0 <= 1.0 violated"]
    got, want = solve(bulk), solve(one)
    assert got.status is want.status is Status.OPTIMAL
    assert np.array_equal(got.values, want.values) and got.objective_value == want.objective_value


def test_block_storage_is_its_own_and_grows_by_copies():
    # the block of test_bulk_block_equals_row_by_row_build, through add_block
    lower, upper, binary = np.array([0.0, -1.0, 0.0]), np.array([1.0, 2.0, np.inf]), np.array([True, False, False])
    rows, cols, coeffs = np.array([0, 0, 2, 2, 2]), np.array([1, 0, 2, 0, 1]), np.array([1.5, -2.0, 1.0, 1.0, -0.5])
    senses, rhs = ["<=", ">=", "="], np.array([3.0, -1.0, 0.0])
    rowwise = MilpModel()
    rowwise.add_block(lower=lower, upper=upper, binary=binary, rows=rows, cols=cols, coeffs=coeffs,
                      senses=senses, rhs=rhs)
    # the model keeps copies: changing the arrays it was given changes nothing
    for arr in (lower, upper, binary, rows, cols, coeffs, rhs):
        arr[0] = arr[1]
    first = rowwise.variables[0]
    assert (first.lower, first.upper, first.is_binary) == (0.0, 1.0, True)
    assert rowwise.constraints[0].coefficients == {1: 1.5, 0: -2.0}
    # it grows like any model after its block, and only by copies: arrays
    # read before the appends keep their values after them
    before = rowwise._row_arrays() + rowwise._column_arrays()
    kept = [arr.copy() for arr in before]
    assert all(arr.flags.writeable is False for arr in before)
    assert rowwise.add_constraint({2: 1.0}, "<=", 4.0) == 3 and rowwise.add_binary() == 3
    assert rowwise.add_block(rows=[0], cols=[3], coeffs=[1.0], senses=["<="], rhs=[1.0]) == (4, 4)
    assert _rows_of(rowwise)[3:] == [([(2, 1.0)], "<=", 4.0), ([(3, 1.0)], "<=", 1.0)]
    assert rowwise.variables[3] == rowwise.variables[0]
    for old, copy in zip(before, kept):
        assert np.array_equal(old, copy) and old.dtype == copy.dtype
    assert [arr.size for arr in rowwise._row_arrays() + rowwise._column_arrays()] == [7, 7, 7, 5, 5, 4, 4, 4]


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
        dict(cols=[False, True]),
        dict(rows=[False, False]),
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
    # only integers in HiGHS's option range; anything else would reach the
    # bindings and fail there with a raw TypeError
    for bad in (2.5, 1.0, "7", 2**40, 2**31, True, None):
        for field in ("max_nodes", "max_lp_iterations"):
            with pytest.raises(ValueError, match=field):
                SolveLimits(**{field: bad})
    limits = SolveLimits(max_nodes=np.int64(2**31 - 1), max_lp_iterations=np.int32(1))
    assert (limits.max_nodes, limits.max_lp_iterations) == (2**31 - 1, 1)
    assert type(limits.max_nodes) is int and type(limits.max_lp_iterations) is int
    assert solve(_market_split(), limits).status is Status.OPTIMAL


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

    # HiGHS refuses a coefficient of 1e20 whether or not it presolves, and
    # the model would be feasible (y = 1e-20), so the builder refuses it
    m = MilpModel()
    y, z = m.add_continuous(), m.add_binary()
    with pytest.raises(ModelError, match="coefficient of variable 0"):
        m.add_constraint({y: 1e20, z: 1.0}, ">=", 1.0)


def test_limit_stop_is_not_retried(monkeypatch):
    calls = []
    monkeypatch.setattr(qostopo.milp, "_highs", _fake_highs(highs.HighsModelStatus.kSolutionLimit, calls))
    assert solve(_presolve_fault_model()).status is Status.RESOURCE_LIMIT
    assert calls == [True]


def _small_lp():
    m = MilpModel()
    x = m.add_continuous()
    m.add_constraint({x: 1.0}, ">=", 1.0)
    m.set_objective({x: 1.0})
    return m


def test_lp_solve_error_is_retried_with_presolve(monkeypatch):
    calls = []
    monkeypatch.setattr(qostopo.milp, "_highs", _fake_highs(highs.HighsModelStatus.kSolveError, calls))
    with pytest.raises(SolverError, match="Solve error"):
        solve(_small_lp())
    assert calls == [False, True]


def test_lp_limit_stop_is_not_retried(monkeypatch):
    calls = []
    monkeypatch.setattr(qostopo.milp, "_highs", _fake_highs(highs.HighsModelStatus.kIterationLimit, calls))
    assert solve(_small_lp()).status is Status.RESOURCE_LIMIT
    assert calls == [False]


def test_missing_highs_bindings_name_the_installed_scipy(monkeypatch):
    import scipy

    monkeypatch.setattr(qostopo.milp, "highs", None)
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    with pytest.raises(ImportError, match=f"installed scipy is {scipy.__version__}"):
        solve(_presolve_fault_model())


def test_highs_refuses_arrays_that_disagree_in_size(monkeypatch):
    # with the bindings unbound, reaching HiGHS would raise AttributeError
    monkeypatch.setattr(qostopo.milp, "highs", None)
    cost, bounds = np.ones(2), (np.zeros(2), np.ones(2))
    matrix = (np.array([0, 1, 2], dtype=np.int32), np.array([0, 1], dtype=np.int32), np.array([1.0, 1.0]))
    for row_bounds, start in [
        ((np.zeros(2), np.ones(3)), matrix[0]),  # row bounds of different lengths
        ((np.zeros(2), np.ones(2)), matrix[0][:2]),  # column starts for one column, costs for two
    ]:
        with pytest.raises(ValueError, match="HiGHS model arrays disagree in size"):
            qostopo.milp._highs(cost, bounds, (start, *matrix[1:]), row_bounds, None, {})


def _wrapper_solve(model, limits):
    """The solve as it ran through scipy's milp and linprog wrappers, kept as
    the reference for the direct HiGHS call. Returns the status, values,
    objective and node count."""
    n = model.num_variables
    row, col, coeff, row_lb, row_ub = model._row_arrays()
    empty = np.bincount(row, minlength=row_lb.size) == 0
    if (empty & ((row_lb > 0.0) | (row_ub < 0.0))).any():
        return "infeasible", None, None, None
    c_vec = np.zeros(n)
    for var, value in model.objective.items():
        c_vec[var] = value
    lower, upper, binary = model._column_arrays()
    a_mat = sparse.csc_array((coeff, (row, col)), shape=(row_lb.size, n))
    tolerances = {"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9}
    if binary.any():
        def backend(presolve):
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", message="Unrecognized options detected")
                return milp(
                    c_vec, integrality=binary.astype(int), bounds=Bounds(lower, upper),
                    constraints=[LinearConstraint(a_mat, row_lb, row_ub)] if row_lb.size else [],
                    options={"mip_rel_gap": 0.0, "node_limit": limits.max_nodes, "presolve": presolve,
                             "mip_feasibility_tolerance": 1e-9, **tolerances},
                )
    else:
        a_csr = a_mat.tocsr()
        # a row is "<=" with no lower bound, ">=" with no upper, else "="
        le, ge = np.flatnonzero(row_lb == -np.inf), np.flatnonzero(row_ub == np.inf)
        eq = np.flatnonzero(row_lb == row_ub)

        def backend(presolve):
            return linprog(
                c_vec, A_ub=sparse.vstack([a_csr[le], -a_csr[ge]], format="csr"),
                b_ub=np.concatenate([row_ub[le], -row_lb[ge]]), A_eq=a_csr[eq], b_eq=row_lb[eq],
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
    return status, res.x, res.fun, None if nodes is None else int(nodes)


def test_direct_highs_call_matches_scipy_wrappers(monkeypatch):
    from qostopo import (EnergyLedger, ScenarioParams, build_load_lp, build_topology_milp, decode_and_validate,
                         generate_scenario)

    option_names = [name for name in dir(highs.HighsOptions()) if not name.startswith("_")]
    inputs = []

    class Recording(highs._Highs):
        """Records every option HiGHS is handed and the whole model it holds."""

        def passOptions(self, options):
            inputs.append({name: repr(getattr(options, name)) for name in option_names})
            return super().passOptions(options)

        def passModel(self, *model):
            # scipy's wrappers pass a HighsLp, solve passes the array overload's
            # sizes and a row-wise matrix; either way the model is read back
            # after HiGHS has taken it in
            status = super().passModel(*model)
            lp = self.getLp()
            a = lp.a_matrix_
            sizes = (lp.num_col_, lp.num_row_, len(a.value_), int(a.format_), int(lp.sense_), lp.offset_)
            arrays = (lp.col_cost_, lp.col_lower_, lp.col_upper_, lp.row_lower_, lp.row_upper_,
                      a.start_, a.index_, a.value_, [int(kind) for kind in lp.integrality_])
            inputs.append((sizes, [np.asarray(v, dtype=float).tobytes() for v in arrays]))
            return status

    monkeypatch.setattr(highs, "_Highs", Recording)

    def compared(model, limits=None):
        got = solve(model, limits)
        direct = inputs.copy()
        inputs.clear()
        status, values, objective, nodes = _wrapper_solve(model, limits or SolveLimits())
        wrapped = inputs.copy()
        inputs.clear()
        assert got.status.value == status and direct
        if model.binary_ids:
            assert wrapped == direct
            assert values is None if got.values is None else np.array_equal(got.values, values)
            assert got.mip_node_count == nodes
        else:
            # LPs run presolve off first and keep the model's row layout, so
            # HiGHS's input differs from linprog's, and a degenerate LP may
            # end on another optimal vertex of the same objective
            assert got.objective_value == objective
            assert check_solution(model, got.values) == []
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

    # every admission's model, including those the route search settles
    # without the solver, on the ledger simulate.run would keep
    field8 = dict(field, node_count=8, region=(100.0, 100.0), max_power=20000.0, bandwidth=60.0, request_rate=1.0)
    for threshold in (None, 2e3):
        for seed in range(6):
            net, reqs = generate_scenario(ScenarioParams(threshold=threshold, seed=9_200_000 + seed, **field8))
            ledger = EnergyLedger.empty(net.node_count)
            for req in reqs:
                got = compared(build_topology_milp(net, [req], ledger, threshold))
                if got.status is Status.OPTIMAL:
                    ledger.charge(decode_and_validate(net, [req], ledger, threshold, got).node_energy)
    statuses = [status for binary, status in solved[4:] if binary]
    assert len(statuses) == len(solved) - 4 >= 50
    assert {Status.OPTIMAL, Status.INFEASIBLE} <= set(statuses)


def _solution_bytes(sol):
    values = None if sol.values is None else sol.values.tobytes()
    objective = None if sol.objective_value is None else sol.objective_value.hex()
    return sol.status, values, objective, sol.mip_node_count


def test_shared_highs_instance_answers_as_a_fresh_one():
    # every kind of run, interleaved on the one shared HiGHS instance: MILPs,
    # load LPs, infeasible models, node- and iteration-limit stops and a
    # "Solve error" that is retried; each solution equals, byte for byte,
    # the one a freshly built instance gives for the same model
    from qostopo import EnergyLedger, ScenarioParams, build_load_lp, build_topology_milp, generate_scenario

    field = dict(region=(100.0, 100.0), path_loss_exponent=2.0, max_power=20000.0, bandwidth=60.0,
                 request_rate=1.5, mean_demand=10.0, hop_bound=3, threshold=None)
    net, reqs = generate_scenario(ScenarioParams(node_count=8, seed=3, **field))
    load_lp = build_load_lp(net, reqs)
    ledger = EnergyLedger(np.linspace(0.0, 3e3, 8))
    infeasible = MilpModel()
    x = infeasible.add_binary()
    infeasible.add_constraint({x: 1.0}, ">=", 2.0)
    rng = np.random.default_rng(31)
    runs = [
        (_market_split(), SolveLimits(max_nodes=1)),
        (load_lp, None),
        (_presolve_fault_model(), None),
        *[(build_topology_milp(net, [req], ledger, threshold), None) for req in reqs[:4] for threshold in (None, 1e3)],
        (load_lp, SolveLimits(max_lp_iterations=1)),
        (infeasible, None),
        *[(_random_model(rng), None) for _ in range(8)],
        (_small_lp(), None),
        (_market_split(), None),
    ]
    shared = [solve(model, limits) for model, limits in runs]
    for (model, limits), got in zip(runs, shared):
        qostopo.milp._drop_instance()
        assert _solution_bytes(got) == _solution_bytes(solve(model, limits))
    assert {sol.status for sol in shared} == {Status.OPTIMAL, Status.INFEASIBLE, Status.RESOURCE_LIMIT}
    assert shared[0].values is not None and shared[-1].mip_node_count > 1


def _one_binary():
    m = MilpModel()
    x = m.add_binary()
    m.add_constraint({x: 1.0}, ">=", 0.5)
    m.set_objective({x: 1.0})
    return m


def test_one_highs_instance_serves_every_run(monkeypatch):
    # MILP runs share one instance, each handed its options and model; a
    # run on an LP, or one that ends on "Solve error", lets it go, SolverError
    # reads its status text from the instance the next run uses, and a new
    # _Highs class gets a new one
    built, passed = [], []

    class Counting(highs._Highs):
        def __init__(self):
            super().__init__()
            built.append(self)

        def passOptions(self, options):
            passed.append("options")
            return super().passOptions(options)

        def passModel(self, *model):
            passed.append("model")
            return super().passModel(*model)

    monkeypatch.setattr(highs, "_Highs", Counting)
    for _ in range(3):
        assert solve(_one_binary()).objective_value == 1.0
        assert solve(_market_split(), SolveLimits(max_nodes=1)).status is Status.RESOURCE_LIMIT
    assert len(built) == 1 and passed == ["options", "model"] * 6

    # an LP runs on the instance there is and leaves none behind
    assert solve(_small_lp()).objective_value == 1.0
    assert len(built) == 1 and qostopo.milp._solver is None
    assert solve(_one_binary()).objective_value == 1.0
    assert len(built) == 2 and qostopo.milp._solver is built[1]

    # presolve ends this one on "Solve error"; the retry runs on a new instance
    assert solve(_presolve_fault_model()).status is Status.INFEASIBLE
    assert len(built) == 3 and qostopo.milp._solver is built[2]

    real_highs = qostopo.milp._highs
    monkeypatch.setattr(qostopo.milp, "_highs", _fake_highs(highs.HighsModelStatus.kSolveError, []))
    with pytest.raises(SolverError, match="Solve error"):
        solve(_one_binary())
    assert len(built) == 4 and qostopo.milp._solver is built[3]
    monkeypatch.setattr(qostopo.milp, "_highs", real_highs)
    assert solve(_one_binary()).objective_value == 1.0
    assert len(built) == 4 and passed == ["options", "model"] * 11

    monkeypatch.undo()
    assert solve(_one_binary()).objective_value == 1.0
    assert type(qostopo.milp._solver) is highs._Highs


def test_model_grows_after_solve_and_check():
    # solve and check_solution read the storage itself, not copies; it is
    # read-only, and each append replaces the arrays it extends rather than
    # writing into them, so the model grows after both and solves again
    m = MilpModel()
    x = m.add_continuous()
    m.add_constraint({x: 1.0}, ">=", 1.0)
    m.set_objective({x: 1.0})
    first = solve(m)
    assert first.objective_value == 1.0 and check_solution(m, first.values) == []
    y = m.add_continuous(upper=5.0)
    m.add_constraint({x: 1.0, y: -1.0}, ">=", 2.0)
    first_var, first_row = m.add_block(lower=[0.0], upper=[1.0], rows=[0, 0], cols=[y, 2], coeffs=[1.0, 1.0],
                                       senses=[">="], rhs=[3.0])
    assert (first_var, first_row) == (2, 2)
    m.set_objective({x: 1.0, first_var: 2.0})
    again = solve(m)
    assert again.status is Status.OPTIMAL and check_solution(m, again.values) == []
    assert again.values.tolist() == [5.0, 3.0, 0.0] and again.objective_value == 5.0
    assert m._row_arrays()[2].flags.writeable is False


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
seen["real_solves"] = scipy_loaded()

from scipy.optimize import Bounds, linprog, milp
from scipy.optimize._highspy import _core
seen["scipy_reuses_bindings"] = _core is qostopo.milp.highs
seen["linprog_x"] = linprog([1.0], bounds=[(2.0, 3.0)], method="highs").x.tolist()
seen["milp_x"] = milp([1.0], integrality=[1], bounds=Bounds(0.5, 3.0)).x.tolist()
seen["solve_after_scipy"] = solve_load_lp(net, [Request(0, 1, 4.0, 1)]).max_utilization
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
    assert seen["unbound"] and seen["first_solve"] == seen["real_solves"] == []
    assert seen["fake_status"] == "infeasible" and seen["fake_calls"] == [True]
    assert seen["load_lp_utilization"] == pytest.approx(0.16, abs=1e-9)
    assert seen["fake_kept"]
    assert seen["reloaded_status"] == "optimal" and seen["reloaded_is_scipy"]
    # scipy.optimize imports after the bindings, reuses them and still solves
    assert seen["scipy_reuses_bindings"]
    assert seen["linprog_x"] == [2.0] and seen["milp_x"] == [1.0]
    assert seen["solve_after_scipy"] == seen["load_lp_utilization"]
