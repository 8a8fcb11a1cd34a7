"""Exact solver for small mixed binary/continuous linear programs.

Models are assembled row by row through :class:`MilpModel` and solved to
proven optimality (zero MIP gap) via scipy.optimize's HiGHS backend —
``milp`` when binaries are present, ``linprog`` for purely continuous
models. Solutions carry an explicit status (Optimal / Infeasible /
Unbounded / ResourceLimit); hitting a node or iteration limit is a status,
never a silently wrong answer, and solving the same model twice yields the
same solution. HiGHS's presolve occasionally gives up on a small model with
"Solve error" (scipy status 4 without a limit message); such a solve is
retried once with presolve off, and if that attempt fails too,
:class:`SolverError` is raised. HiGHS writes some diagnostics straight to
file descriptor 1, bypassing its own output options, so fd 1 is pointed at
the null device for the duration of each backend call.

scipy's ``sparse`` and ``optimize`` (HiGHS) modules are imported on the
first solve that reaches the backend, not when this module is imported, so
code that never solves (scenario parsing, geometry, the command line's help
and usage errors) never pays for them. The loaded names (``sparse``,
``Bounds``, ``LinearConstraint``, ``linprog``, ``milp``) are attributes of
this module and stay patchable: the loader only fills names that are still
``None``, so a stand-in set before the first solve is the one called.

The module also ships two solver-independent companions used to cross-check
results: :func:`check_solution`, a plain-Python constraint re-checker that
shares no code with the solve path, and :func:`lp_text`, an LP-file-style
dump of the model for eyeballing or feeding external tools.
"""

from __future__ import annotations

import contextlib
import enum
import io
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

# Filled on the first solve by _load_scipy.
sparse = None
Bounds = LinearConstraint = linprog = milp = None

__all__ = [
    "FEASIBILITY_TOL",
    "INTEGRALITY_TOL",
    "Status",
    "ModelError",
    "SolverError",
    "SolveLimits",
    "Solution",
    "MilpModel",
    "solve",
    "check_solution",
    "lp_text",
]

#: Constraint satisfaction tolerance used by solution checks.
FEASIBILITY_TOL = 1e-7
#: How far a binary's value may sit from {0, 1}.
INTEGRALITY_TOL = 1e-6

_SENSES = ("<=", ">=", "=")


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    RESOURCE_LIMIT = "resource_limit"


class ModelError(ValueError):
    """Raised for malformed model input (unknown variable, NaN data, ...)."""


class SolverError(RuntimeError):
    """Raised when HiGHS fails on a model both with and without presolve."""


@dataclass(frozen=True)
class SolveLimits:
    """Resource caps for a single solve call.

    ``max_nodes`` caps branch-and-bound nodes for models with binaries;
    ``max_lp_iterations`` caps simplex iterations for continuous models.
    Exceeding either yields ``Status.RESOURCE_LIMIT``.
    """

    max_nodes: int = 200_000
    max_lp_iterations: int = 100_000

    def __post_init__(self) -> None:
        if int(self.max_nodes) < 1:
            raise ValueError(f"max_nodes must be at least 1, got {self.max_nodes}")
        if int(self.max_lp_iterations) < 1:
            raise ValueError(f"max_lp_iterations must be at least 1, got {self.max_lp_iterations}")


@dataclass(frozen=True)
class Solution:
    """Solver output.

    ``values`` maps variable id -> value (a dense array indexed by VarId);
    it is present for Optimal solutions and for ResourceLimit outcomes that
    produced an incumbent. ``objective_value`` is present iff Optimal.
    ``mip_node_count`` is the number of branch-and-bound nodes HiGHS
    explored; it is ``None`` for purely continuous models, which ``linprog``
    solves without branching.
    """

    status: Status
    values: np.ndarray | None = None
    objective_value: float | None = None
    mip_node_count: int | None = None

    def value(self, var: int) -> float:
        if self.values is None:
            raise ValueError(f"no values available for status {self.status}")
        return float(self.values[var])


@dataclass
class _Variable:
    lower: float
    upper: float
    is_binary: bool


@dataclass
class _Constraint:
    coefficients: dict[int, float]
    sense: str
    rhs: float


def _require_finite(value: float, what: str) -> float:
    v = float(value)
    if math.isnan(v) or math.isinf(v):
        raise ModelError(f"{what} must be finite, got {value!r}")
    return v


class MilpModel:
    """Builder for a minimization model over continuous and binary variables."""

    def __init__(self) -> None:
        self.variables: list[_Variable] = []
        self.constraints: list[_Constraint] = []
        self.objective: dict[int, float] = {}

    # -- building ---------------------------------------------------------

    def add_continuous(self, lower: float = 0.0, upper: float = math.inf) -> int:
        """Add a continuous variable with bounds [lower, upper]; returns its id."""
        lo, up = float(lower), float(upper)
        if math.isnan(lo) or math.isnan(up):
            raise ModelError("variable bounds must not be NaN")
        if lo > up:
            raise ModelError(f"lower bound {lo} exceeds upper bound {up}")
        self.variables.append(_Variable(lo, up, is_binary=False))
        return len(self.variables) - 1

    def add_binary(self) -> int:
        """Add a 0/1 variable; returns its id."""
        self.variables.append(_Variable(0.0, 1.0, is_binary=True))
        return len(self.variables) - 1

    def _check_coefficients(self, coefficients: Mapping[int, float]) -> dict[int, float]:
        out: dict[int, float] = {}
        for var, coeff in coefficients.items():
            v = int(var)
            if not 0 <= v < len(self.variables):
                raise ModelError(f"unknown variable id {var}")
            out[v] = _require_finite(coeff, f"coefficient of variable {var}")
        return out

    def add_constraint(self, coefficients: Mapping[int, float], sense: str, rhs: float) -> int:
        """Append the row ``sum(coeff * var) <sense> rhs``; returns its index.

        ``sense`` is one of ``"<="``, ``">="``, ``"="``. An empty coefficient
        mapping is accepted; whether it is vacuously true or makes the model
        infeasible is resolved at solve time.
        """
        if sense not in _SENSES:
            raise ModelError(f"sense must be one of {_SENSES}, got {sense!r}")
        coeffs = self._check_coefficients(coefficients)
        self.constraints.append(_Constraint(coeffs, sense, _require_finite(rhs, "rhs")))
        return len(self.constraints) - 1

    def set_objective(self, coefficients: Mapping[int, float]) -> None:
        """Set the (minimized) objective; omitted variables have coefficient 0."""
        self.objective = self._check_coefficients(coefficients)

    # -- introspection ----------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def binary_ids(self) -> list[int]:
        return [i for i, v in enumerate(self.variables) if v.is_binary]


def _empty_row_feasible(sense: str, rhs: float) -> bool:
    # An empty row reads "0 <sense> rhs".
    if sense == "<=":
        return 0.0 <= rhs
    if sense == ">=":
        return 0.0 >= rhs
    return rhs == 0.0


def solve(model: MilpModel, limits: SolveLimits | None = None) -> Solution:
    """Solve ``model`` to proven optimality or a definite status.

    Deterministic: identical models produce identical solutions. Returns
    ``Status.RESOURCE_LIMIT`` (with the best incumbent, if any) when the
    node/iteration caps in ``limits`` are hit. A HiGHS "Solve error" is
    retried once without presolve; :class:`SolverError` is raised if the
    retry fails as well.
    """
    limits = limits or SolveLimits()
    n = model.num_variables

    rows = [c for c in model.constraints if c.coefficients]
    for c in model.constraints:
        if not c.coefficients and not _empty_row_feasible(c.sense, c.rhs):
            return Solution(Status.INFEASIBLE)
    if n == 0:
        return Solution(Status.OPTIMAL, values=np.zeros(0), objective_value=0.0)

    c_vec = np.zeros(n)
    for var, coeff in model.objective.items():
        c_vec[var] = coeff
    lower = np.array([v.lower for v in model.variables])
    upper = np.array([v.upper for v in model.variables])
    integrality = np.array([1 if v.is_binary else 0 for v in model.variables])

    data, row_idx, col_idx, row_lb, row_ub = [], [], [], [], []
    for r, con in enumerate(rows):
        for var, coeff in con.coefficients.items():
            row_idx.append(r)
            col_idx.append(var)
            data.append(coeff)
        if con.sense == "<=":
            row_lb.append(-np.inf)
            row_ub.append(con.rhs)
        elif con.sense == ">=":
            row_lb.append(con.rhs)
            row_ub.append(np.inf)
        else:
            row_lb.append(con.rhs)
            row_ub.append(con.rhs)
    _load_scipy()
    a_mat = sparse.csc_array((data, (row_idx, col_idx)), shape=(len(rows), n))

    if integrality.any():
        constraints = [LinearConstraint(a_mat, np.array(row_lb), np.array(row_ub))] if rows else []

        def backend(presolve: bool):
            with warnings.catch_warnings():
                # The tolerance options below are forwarded to HiGHS verbatim;
                # scipy flags them as unrecognized. They keep row violations well
                # under the 1e-7 re-check tolerance even when coefficients are
                # large (HiGHS's stock MIP feasibility tolerance is only 1e-6).
                warnings.filterwarnings("ignore", message="Unrecognized options detected")
                return milp(
                    c_vec,
                    constraints=constraints,
                    integrality=integrality,
                    bounds=Bounds(lower, upper),
                    options={
                        "mip_rel_gap": 0.0,
                        "node_limit": limits.max_nodes,
                        "presolve": presolve,
                        "mip_feasibility_tolerance": 1e-9,
                        "primal_feasibility_tolerance": 1e-9,
                        "dual_feasibility_tolerance": 1e-9,
                    },
                )
    else:
        lb = np.array(row_lb)
        ub = np.array(row_ub)
        eq = np.isfinite(lb) & np.isfinite(ub) & (lb == ub)
        ge = np.isfinite(lb) & ~eq
        le = np.isfinite(ub) & ~eq
        a_csr = a_mat.tocsr()
        a_ub_parts, b_ub_parts = [], []
        if le.any():
            a_ub_parts.append(a_csr[np.flatnonzero(le)])
            b_ub_parts.append(ub[le])
        if ge.any():
            a_ub_parts.append(-a_csr[np.flatnonzero(ge)])
            b_ub_parts.append(-lb[ge])

        def backend(presolve: bool):
            return linprog(
                c_vec,
                A_ub=sparse.vstack(a_ub_parts, format="csr") if a_ub_parts else None,
                b_ub=np.concatenate(b_ub_parts) if b_ub_parts else None,
                A_eq=a_csr[np.flatnonzero(eq)] if eq.any() else None,
                b_eq=lb[eq] if eq.any() else None,
                bounds=np.column_stack([lower, upper]),
                method="highs",
                options={
                    "maxiter": limits.max_lp_iterations,
                    "presolve": presolve,
                    "primal_feasibility_tolerance": 1e-9,
                    "dual_feasibility_tolerance": 1e-9,
                },
            )

    with _stdout_silenced():
        res = backend(presolve=True)
        if res.status == 4 and not _is_limit_stop(res):
            res = backend(presolve=False)
    # linprog may report a node count too (0); only milp branches
    nodes = getattr(res, "mip_node_count", None) if integrality.any() else None
    return _interpret(res, None if nodes is None else int(nodes))


def _load_scipy() -> None:
    """Bind the scipy names this module solves with, leaving any already set."""
    if None not in (sparse, Bounds, LinearConstraint, linprog, milp):
        return
    from scipy import optimize
    from scipy import sparse as scipy_sparse

    loaded = {
        "sparse": scipy_sparse,
        "Bounds": optimize.Bounds,
        "LinearConstraint": optimize.LinearConstraint,
        "linprog": optimize.linprog,
        "milp": optimize.milp,
    }
    namespace = globals()
    for name, value in loaded.items():
        if namespace[name] is None:
            namespace[name] = value


@contextlib.contextmanager
def _stdout_silenced():
    """Point file descriptor 1 at the null device; restore it on exit.

    The redirect is process-wide, so solves must not run on several threads
    at once.
    """
    try:
        saved = os.dup(1)
    except OSError:  # no fd 1 to protect
        yield
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, 1)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)
        os.close(null)


def _is_limit_stop(res) -> bool:
    # scipy reports some HiGHS outcomes (e.g. node-limit stops, which HiGHS
    # words "Solution limit reached") as status 4 with an explanatory
    # message; anything limit-like is a resource stop.
    return "limit" in str(res.message).lower()


def _interpret(res, nodes: int | None) -> Solution:
    values = None if res.x is None else np.asarray(res.x, dtype=float)
    if res.status == 0:
        return Solution(Status.OPTIMAL, values=values, objective_value=float(res.fun), mip_node_count=nodes)
    if res.status == 1:
        return Solution(Status.RESOURCE_LIMIT, values=values, mip_node_count=nodes)
    if res.status == 2:
        return Solution(Status.INFEASIBLE, mip_node_count=nodes)
    if res.status == 3:
        return Solution(Status.UNBOUNDED, mip_node_count=nodes)
    if _is_limit_stop(res):
        return Solution(Status.RESOURCE_LIMIT, values=values, mip_node_count=nodes)
    raise SolverError(f"solver returned an unexpected result: {res.message}")


def check_solution(
    model: MilpModel,
    values,
    feasibility_tol: float = FEASIBILITY_TOL,
    integrality_tol: float = INTEGRALITY_TOL,
) -> list[str]:
    """Independently re-check ``values`` against every bound and constraint.

    Pure-Python re-evaluation sharing nothing with :func:`solve`. Returns a
    list of human-readable violation descriptions; an empty list means the
    assignment is feasible (within the tolerances) and integral on binaries.
    """
    vals = np.asarray(values, dtype=float)
    problems: list[str] = []
    if vals.shape != (model.num_variables,):
        return [f"expected {model.num_variables} values, got shape {vals.shape}"]
    for i, var in enumerate(model.variables):
        v = vals[i]
        if not math.isfinite(v):
            problems.append(f"variable {i} has non-finite value {v}")
            continue
        if v < var.lower - feasibility_tol or v > var.upper + feasibility_tol:
            problems.append(f"variable {i} = {v} outside [{var.lower}, {var.upper}]")
        if var.is_binary and min(abs(v - 0.0), abs(v - 1.0)) > integrality_tol:
            problems.append(f"binary variable {i} = {v} is not integral")
    for r, con in enumerate(model.constraints):
        lhs = 0.0
        for var, coeff in con.coefficients.items():
            lhs += coeff * vals[var]
        if con.sense == "<=" and lhs > con.rhs + feasibility_tol:
            problems.append(f"constraint {r}: {lhs} <= {con.rhs} violated")
        elif con.sense == ">=" and lhs < con.rhs - feasibility_tol:
            problems.append(f"constraint {r}: {lhs} >= {con.rhs} violated")
        elif con.sense == "=" and abs(lhs - con.rhs) > feasibility_tol:
            problems.append(f"constraint {r}: {lhs} = {con.rhs} violated")
    return problems


def lp_text(model: MilpModel) -> str:
    """Render the model in LP-file style (objective, rows, bounds, binaries).

    A debugging aid for cross-checking against external tools. The tests
    pin its bytes for one topology model, so a format change updates them.
    """
    out = io.StringIO()

    def term_string(coeffs: Mapping[int, float]) -> str:
        parts = []
        for var in sorted(coeffs):
            coeff = coeffs[var]
            sign = "-" if coeff < 0 else "+"
            parts.append(f"{sign} {abs(coeff):.12g} x{var}")
        if not parts:
            return "0"
        first = parts[0]
        first = first[2:] if first.startswith("+ ") else "-" + first[2:]
        return " ".join([first] + parts[1:])

    out.write("Minimize\n")
    out.write(f" obj: {term_string(model.objective)}\n")
    out.write("Subject To\n")
    sense_map = {"<=": "<=", ">=": ">=", "=": "="}
    for r, con in enumerate(model.constraints):
        out.write(f" c{r}: {term_string(con.coefficients)} {sense_map[con.sense]} {con.rhs:.12g}\n")
    out.write("Bounds\n")
    for i, var in enumerate(model.variables):
        if var.is_binary:
            continue
        lo = "-inf" if math.isinf(var.lower) and var.lower < 0 else f"{var.lower:.12g}"
        hi = "+inf" if math.isinf(var.upper) and var.upper > 0 else f"{var.upper:.12g}"
        out.write(f" {lo} <= x{i} <= {hi}\n")
    binaries = model.binary_ids
    if binaries:
        out.write("Binary\n")
        for i in binaries:
            out.write(f" x{i}\n")
    out.write("End\n")
    return out.getvalue()
