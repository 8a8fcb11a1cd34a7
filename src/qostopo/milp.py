"""Exact solver for small mixed binary/continuous linear programs.

Models are assembled through :class:`MilpModel`, one variable or row at a
time or in array blocks, and kept as arrays: column bounds and binary
flags, coefficient triplets, row senses and right-hand sides. The builder
refuses what HiGHS would refuse or read as infinite: a matrix coefficient
of magnitude 1e15 or more, a finite bound, right-hand side or cost of
magnitude 1e20 or more. :func:`solve` hands HiGHS numpy arrays, the rows in
model order as ``lo <= Ax <= up`` and the triplets as one column-wise
sparse matrix, and solves to proven optimality (zero MIP gap) or an
explicit status; a node or iteration limit is a status, never a silently
wrong answer. Only the model status, the column values, the objective and
the node count are read back. Models with binaries get scipy ``milp``'s
layout, options and presolve, so their answers match it bit for bit;
continuous ones are solved without presolve, which on the load LP costs
several times what it saves. HiGHS occasionally gives up on a small model
with "Solve error"; a solve that ends on such a status is retried once
with the other presolve setting, and if that attempt fails too,
:class:`SolverError` is raised. HiGHS writes some diagnostics straight to
file descriptor 1, so fd 1 is pointed at the null device for each run.

The HiGHS bindings (``scipy.optimize._highspy._core``, scipy 1.15 and
later) load on the first solve that reaches HiGHS, not on import, so code
that never solves (scenario parsing, geometry, the command line's help and
usage errors) never pays for them. The compiled file is loaded under its
own name without running ``scipy.optimize``'s package code, and kept in
``sys.modules``, where a later ``import scipy.optimize`` reuses it. It is
bound to this module's ``highs`` name, which the loader fills only while it
is ``None``; every HiGHS run goes through :func:`_highs`, the one place a
test substitutes a stand-in for the solver.

The module also ships two solver-independent companions used to cross-check
results: :func:`check_solution`, a numpy re-evaluation of every bound and
row on the model's own triplets that shares no code with the solve path
(and no scipy), and :func:`lp_text`, an LP-file-style dump of the model for
eyeballing or feeding external tools.
"""

from __future__ import annotations

import contextlib
import enum
import importlib.util
import io
import math
import os
import sys
from array import array
from dataclasses import dataclass
from importlib.machinery import PathFinder
from types import MappingProxyType
from typing import Mapping

import numpy as np

# The HiGHS bindings scipy ships, bound on the first solve by _load_scipy.
highs = None

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
# rows store their sense as its position in _SENSES
_LE, _GE, _EQ = range(len(_SENSES))
# HiGHS refuses a matrix coefficient of magnitude _LARGE_COEFFICIENT or more
# (its large_matrix_value) and reads a bound, right-hand side or cost of
# magnitude _INFINITE or more as infinite (infinite_bound, infinite_cost).
_LARGE_COEFFICIENT, _INFINITE = 1e15, 1e20


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
    explored; it is ``None`` for purely continuous models, which HiGHS
    solves without branching, and for outcomes without values.
    """

    status: Status
    values: np.ndarray | None = None
    objective_value: float | None = None
    mip_node_count: int | None = None

    def value(self, var: int) -> float:
        if self.values is None:
            raise ValueError(f"no values available for status {self.status}")
        return float(self.values[var])


@dataclass(frozen=True)
class _Variable:
    lower: float
    upper: float
    is_binary: bool


@dataclass(frozen=True)
class _Constraint:
    coefficients: Mapping[int, float]
    sense: str
    rhs: float


def _magnitude_error(what: str, value: float, limit: float) -> ModelError:
    return ModelError(f"{what} must be finite and below {limit:g} in magnitude, got {value!r}")


def _require_below(value: float, limit: float, what: str) -> float:
    v = float(value)
    if not abs(v) < limit:  # NaN fails too
        raise _magnitude_error(what, v, limit)
    return v


def _bounds_ok(lower, upper):
    """Whether lower <= upper and HiGHS takes both as given: each below
    _INFINITE in magnitude or infinite on its own side. Elementwise on
    arrays; NaN fails."""
    finite = ((abs(lower) < _INFINITE) | (lower == -math.inf)) & ((abs(upper) < _INFINITE) | (upper == math.inf))
    return finite & (lower <= upper)


def _bounds_error(lower: float, upper: float) -> ModelError:
    return ModelError(f"lower bound {lower} exceeds upper bound {upper}" if lower > upper else
                      f"bounds [{lower}, {upper}] must be below {_INFINITE:g} in magnitude, or -inf and +inf")


def _append(buf: array, values: np.ndarray) -> None:
    # one copy of the raw bytes, with no Python object per item
    buf.frombytes(memoryview(np.ascontiguousarray(values, dtype=buf.typecode)).cast("B"))


def _integers(values, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ModelError(f"{what} must be a 1-d sequence of integers")
    return arr.astype(np.int64)


def _reals(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ModelError(f"{what} must be a 1-d sequence of numbers")
    return arr


class MilpModel:
    """Builder for a minimization model over continuous and binary variables.

    Storage is columnar: per variable a lower bound, an upper bound and a
    binary flag; per coefficient a (row, variable, value) triplet; per row a
    sense code and a right-hand side. :meth:`add_continuous`,
    :meth:`add_binary` and :meth:`add_constraint` append one item at a time,
    :meth:`add_block` appends whole arrays with the same input checks.
    ``variables`` and ``constraints`` are read-only views rebuilt from that
    storage on each access.
    """

    def __init__(self) -> None:
        self._lower = array("d")
        self._upper = array("d")
        self._binary = array("b")
        self._row = array("q")
        self._col = array("q")
        self._coeff = array("d")
        self._sense = array("b")
        self._rhs = array("d")
        self.objective: dict[int, float] = {}

    # -- building ---------------------------------------------------------

    def add_continuous(self, lower: float = 0.0, upper: float = math.inf) -> int:
        """Add a continuous variable with bounds [lower, upper]; returns its id."""
        lo, up = float(lower), float(upper)
        if not _bounds_ok(lo, up):
            raise _bounds_error(lo, up)
        self._lower.append(lo)
        self._upper.append(up)
        self._binary.append(0)
        return len(self._binary) - 1

    def add_binary(self) -> int:
        """Add a 0/1 variable; returns its id."""
        self._lower.append(0.0)
        self._upper.append(1.0)
        self._binary.append(1)
        return len(self._binary) - 1

    def _check_coefficients(self, coefficients: Mapping[int, float], limit: float) -> dict[int, float]:
        out: dict[int, float] = {}
        n = len(self._lower)
        for var, coeff in coefficients.items():
            v = int(var)
            if not 0 <= v < n:
                raise ModelError(f"unknown variable id {var}")
            out[v] = _require_below(coeff, limit, f"coefficient of variable {var}")
        return out

    def add_constraint(self, coefficients: Mapping[int, float], sense: str, rhs: float) -> int:
        """Append the row ``sum(coeff * var) <sense> rhs``; returns its index.

        ``sense`` is one of ``"<="``, ``">="``, ``"="``. An empty coefficient
        mapping is accepted; whether it is vacuously true or makes the model
        infeasible is resolved at solve time.
        """
        if sense not in _SENSES:
            raise ModelError(f"sense must be one of {_SENSES}, got {sense!r}")
        coeffs = self._check_coefficients(coefficients, _LARGE_COEFFICIENT)
        value = _require_below(rhs, _INFINITE, "rhs")
        r = self.num_constraints
        self._row.extend([r] * len(coeffs))
        self._col.extend(coeffs)
        self._coeff.extend(coeffs.values())
        self._sense.append(_SENSES.index(sense))
        self._rhs.append(value)
        return r

    def add_block(self, *, lower=(), upper=(), rows=(), cols=(), coeffs=(), senses=(), rhs=()) -> tuple[int, int]:
        """Append continuous variables and rows in bulk.

        ``lower[k]``/``upper[k]`` bound the k-th new variable. ``rhs[k]`` and
        ``senses[k]`` (one of ``"<="``, ``">="``, ``"="``) close the k-th new
        row, and the row's terms are the triplets with ``rows == k``: the
        variable ``cols`` (an existing id or one added here) and its
        coefficient ``coeffs``. A variable appears at most once per row.
        Every input is checked as :meth:`add_continuous` and
        :meth:`add_constraint` check theirs, before anything is appended.
        Returns the id of the first new variable and the index of the first
        new row.
        """
        lo, up = _reals(lower, "lower"), _reals(upper, "upper")
        rows_, cols_ = _integers(rows, "rows"), _integers(cols, "cols")
        coeffs_, rhs_ = _reals(coeffs, "coeffs"), _reals(rhs, "rhs")
        if lo.shape != up.shape:
            raise ModelError(f"{lo.size} lower bounds for {up.size} upper bounds")
        if not rows_.size == cols_.size == coeffs_.size:
            raise ModelError(f"{rows_.size} rows, {cols_.size} cols and {coeffs_.size} coeffs differ in length")
        if len(senses) != rhs_.size:
            raise ModelError(f"{len(senses)} senses for {rhs_.size} right-hand sides")
        bad = ~_bounds_ok(lo, up)
        if bad.any():
            k = int(np.argmax(bad))
            raise _bounds_error(float(lo[k]), float(up[k]))
        codes = np.empty(rhs_.size, dtype=np.int8)
        for k, sense in enumerate(senses):
            if sense not in _SENSES:
                raise ModelError(f"sense must be one of {_SENSES}, got {sense!r}")
            codes[k] = _SENSES.index(sense)
        small = abs(rhs_) < _INFINITE
        if not small.all():
            raise _magnitude_error("rhs", float(rhs_[np.argmin(small)]), _INFINITE)
        if ((rows_ < 0) | (rows_ >= rhs_.size)).any():
            raise ModelError(f"row index outside the block's {rhs_.size} rows")
        width = self.num_variables + lo.size
        if ((cols_ < 0) | (cols_ >= width)).any():
            raise ModelError(f"unknown variable id {cols_[(cols_ < 0) | (cols_ >= width)][0]}")
        small = abs(coeffs_) < _LARGE_COEFFICIENT
        if not small.all():
            k = int(np.argmin(small))
            raise _magnitude_error(f"coefficient of variable {cols_[k]}", float(coeffs_[k]), _LARGE_COEFFICIENT)
        cells = np.sort(rows_ * width + cols_)
        if (cells[1:] == cells[:-1]).any():
            raise ModelError("a variable appears twice in one row")

        first_var, first_row = self.num_variables, self.num_constraints
        _append(self._lower, lo)
        _append(self._upper, up)
        _append(self._binary, np.zeros(lo.size))
        _append(self._row, rows_ + first_row)
        _append(self._col, cols_)
        _append(self._coeff, coeffs_)
        _append(self._sense, codes)
        _append(self._rhs, rhs_)
        return first_var, first_row

    def set_objective(self, coefficients: Mapping[int, float]) -> None:
        """Set the (minimized) objective; omitted variables have coefficient 0."""
        self.objective = self._check_coefficients(coefficients, _INFINITE)

    # -- introspection ----------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._lower)

    @property
    def num_constraints(self) -> int:
        return len(self._rhs)

    @property
    def binary_ids(self) -> list[int]:
        return np.flatnonzero(np.array(self._binary)).tolist()

    @property
    def variables(self) -> tuple[_Variable, ...]:
        """Every variable's bounds and kind, in id order."""
        return tuple(map(_Variable, self._lower.tolist(), self._upper.tolist(), map(bool, self._binary)))

    @property
    def constraints(self) -> tuple[_Constraint, ...]:
        """Every row in index order; a row's terms keep their insertion order."""
        rows = np.array(self._row)
        order = np.argsort(rows, kind="stable")
        cols = np.array(self._col)[order].tolist()
        coeffs = np.array(self._coeff)[order].tolist()
        ends = np.cumsum(np.bincount(rows, minlength=self.num_constraints)).tolist()
        out, start = [], 0
        for end, sense, rhs in zip(ends, self._sense, self._rhs):
            terms = MappingProxyType(dict(zip(cols[start:end], coeffs[start:end])))
            out.append(_Constraint(terms, _SENSES[sense], rhs))
            start = end
        return tuple(out)

    def _column_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the lower bounds, upper bounds and binary flags."""
        return np.array(self._lower), np.array(self._upper), np.array(self._binary).astype(bool)

    def _row_arrays(self) -> tuple[np.ndarray, ...]:
        """Copies of the triplets (row, variable, coefficient), then of the
        per-row sense codes and right-hand sides."""
        return (np.array(self._row), np.array(self._col), np.array(self._coeff),
                np.array(self._sense), np.array(self._rhs))



def solve(model: MilpModel, limits: SolveLimits | None = None) -> Solution:
    """Solve ``model`` to proven optimality or a definite status.

    Deterministic: identical models produce identical solutions. Returns
    ``Status.RESOURCE_LIMIT`` (with the best incumbent, if any) when the
    node/iteration caps in ``limits`` are hit. Models with binaries are
    solved with presolve on, continuous ones with presolve off. Any other
    status HiGHS ends on besides optimal, infeasible and unbounded (such as
    "Solve error") is retried once with the other presolve setting;
    :class:`SolverError` is raised if the retry ends on one too.
    """
    limits = limits or SolveLimits()
    n = model.num_variables

    row, col, coeff, sense, rhs = model._row_arrays()
    filled = np.bincount(row, minlength=rhs.size) > 0
    # An empty row reads "0 <sense> rhs".
    holds = np.where(sense == _LE, 0.0 <= rhs, np.where(sense == _GE, 0.0 >= rhs, rhs == 0.0))
    if (~filled & ~holds).any():
        return Solution(Status.INFEASIBLE)
    if n == 0:
        return Solution(Status.OPTIMAL, values=np.zeros(0), objective_value=0.0)

    c_vec = np.zeros(n)
    for var, value in model.objective.items():
        c_vec[var] = value
    lower, upper, binary = model._column_arrays()
    mip = bool(binary.any())

    # Empty rows are dropped and the rest renumbered in order; HiGHS takes
    # each row as lo <= Ax <= up.
    row = (np.cumsum(filled) - 1)[row]
    sense, rhs = sense[filled], rhs[filled]
    row_bounds = (np.where(sense == _LE, -np.inf, rhs), np.where(sense == _GE, np.inf, rhs))
    if mip:
        # the options scipy's milp gave HiGHS
        options = dict(log_to_console=False, mip_max_nodes=limits.max_nodes, mip_rel_gap=0.0,
                       mip_feasibility_tolerance=1e-9)
        presolves = ("on", "off")
    else:
        # the options scipy's linprog gave HiGHS, but presolve off first: on
        # a load LP it costs several times what it saves
        options = dict(highs_debug_level=0, output_flag=False, log_to_console=False, simplex_strategy=1,
                       simplex_iteration_limit=limits.max_lp_iterations,
                       ipm_iteration_limit=limits.max_lp_iterations)
        presolves = ("off", "on")
    # Tolerances of 1e-9 keep row violations well under the 1e-7 re-check
    # tolerance even with large coefficients (HiGHS's stock is 1e-6 or 1e-7).
    options.update(primal_feasibility_tolerance=1e-9, dual_feasibility_tolerance=1e-9)
    # Column-wise, rows ascending within each column: the canonical CSC form
    # scipy's wrappers handed on. No (row, column) pair repeats in a model.
    by_column = np.lexsort((row, col))
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(col, minlength=n), out=start[1:])
    matrix = (start, row[by_column].astype(np.int32), coeff[by_column])

    _load_scipy()
    with _stdout_silenced():
        for presolve in presolves:
            status, values, objective, nodes = _highs(
                c_vec, (lower, upper), matrix, row_bounds, binary if mip else None, dict(options, presolve=presolve)
            )
            solution = _interpret(status, values, objective, nodes, mip)
            if solution is not None:
                return solution
        raise SolverError(f"HiGHS ended with model status {highs._Highs().modelStatusToString(status)!r}")


def _highs(cost, bounds, matrix, row_bounds, integrality, options: dict):
    """Run HiGHS once on ``min cost @ x`` s.t. ``row_bounds`` bound ``A @ x``
    and ``bounds`` bound ``x``; ``matrix`` is ``A`` as CSC (start, index,
    value) and ``integrality`` flags integer columns (``None``: continuous).
    Returns the model status, column values, objective and node count.
    HiGHS copies each array in one go (``passModel``'s array overload) and
    reads as many items as the sizes say, so those are checked first.
    """
    kinds = np.zeros(cost.size, dtype=np.int32) if integrality is None else integrality.astype(np.int32)
    columns = {cost.size, bounds[0].size, bounds[1].size, kinds.size, matrix[0].size - 1}
    if len(columns) != 1 or row_bounds[0].size != row_bounds[1].size or matrix[1].size != matrix[2].size:
        raise ValueError("HiGHS model arrays disagree in size")
    solver = highs._Highs()
    highs_options = highs.HighsOptions()
    for name, value in options.items():
        setattr(highs_options, name, value)
    solver.passOptions(highs_options)
    status = solver.passModel(cost.size, row_bounds[0].size, matrix[2].size, int(highs.MatrixFormat.kColwise),
                              int(highs.ObjSense.kMinimize), 0.0, cost, *bounds, *row_bounds, *matrix, kinds)
    if status == highs.HighsStatus.kError:
        return highs.HighsModelStatus.kModelError, None, math.inf, 0
    solver.run()
    info = solver.getInfo()
    return solver.getModelStatus(), solver.getSolution().col_value, info.objective_function_value, info.mip_node_count


_CORE = "scipy.optimize._highspy._core"


def _load_scipy() -> None:
    """Bind the HiGHS bindings that scipy ships, unless a stand-in is set.

    The module in ``sys.modules`` is reused; a ``None`` entry there blocks
    the load as it blocks an import.
    """
    global highs
    if highs is not None:
        return
    try:
        if _CORE not in sys.modules:
            package = importlib.util.find_spec("scipy")  # found, not imported
            folders = [os.path.join(package.submodule_search_locations[0], "optimize", "_highspy")] if package else []
            spec = PathFinder.find_spec(_CORE, folders)
            if spec is None:
                raise ModuleNotFoundError(f"no {_CORE} in {folders}")
            core = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(core)
            sys.modules[_CORE] = core
        if sys.modules[_CORE] is None:
            raise ModuleNotFoundError(f"import of {_CORE} halted; None in sys.modules")
    except ImportError as exc:
        import scipy
        raise ImportError(f"solving needs {_CORE}, shipped since scipy 1.15; "
                          f"the installed scipy is {scipy.__version__}") from exc
    highs = sys.modules[_CORE]


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


def _interpret(status, values, objective: float, nodes: int, mip: bool) -> Solution | None:
    """The solution a HiGHS model status stands for; ``None`` for a status
    that is neither optimal, infeasible, unbounded nor a budget stop."""
    kind = highs.HighsModelStatus
    if status == kind.kOptimal:
        return Solution(Status.OPTIMAL, np.array(values, dtype=float), float(objective), int(nodes) if mip else None)
    if status == kind.kInfeasible:
        return Solution(Status.INFEASIBLE)
    if status == kind.kUnbounded:
        return Solution(Status.UNBOUNDED)
    if status in (kind.kTimeLimit, kind.kIterationLimit, kind.kSolutionLimit):
        # Only a MIP incumbent with a finite objective has values worth keeping.
        if mip and objective < math.inf:
            return Solution(Status.RESOURCE_LIMIT, np.array(values, dtype=float), mip_node_count=int(nodes))
        return Solution(Status.RESOURCE_LIMIT)
    return None


def check_solution(
    model: MilpModel,
    values,
    feasibility_tol: float = FEASIBILITY_TOL,
    integrality_tol: float = INTEGRALITY_TOL,
) -> list[str]:
    """Independently re-check ``values`` against every bound and constraint.

    A numpy re-evaluation of the model's own bounds and triplets that shares
    nothing with :func:`solve` (no scipy, no matrix assembly). Each row's
    left-hand side is summed over its terms in insertion order. Returns a
    list of human-readable violation descriptions, variables first, then
    rows, each in index order; an empty list means the assignment is
    feasible (within the tolerances) and integral on binaries.
    """
    vals = np.asarray(values, dtype=float)
    problems: list[str] = []
    if vals.shape != (model.num_variables,):
        return [f"expected {model.num_variables} values, got shape {vals.shape}"]
    lower, upper, binary = model._column_arrays()
    finite = np.isfinite(vals)
    with np.errstate(invalid="ignore"):
        outside = finite & ((vals < lower - feasibility_tol) | (vals > upper + feasibility_tol))
        fractional = finite & binary & (np.minimum(np.abs(vals), np.abs(vals - 1.0)) > integrality_tol)
    for i in np.flatnonzero(~finite | outside | fractional):
        v = vals[i]
        if not finite[i]:
            problems.append(f"variable {i} has non-finite value {v}")
            continue
        if outside[i]:
            problems.append(f"variable {i} = {v} outside [{float(lower[i])}, {float(upper[i])}]")
        if fractional[i]:
            problems.append(f"binary variable {i} = {v} is not integral")

    row, col, coeff, sense, rhs = model._row_arrays()
    # bincount adds each row's terms one by one in triplet order, like a loop
    with np.errstate(all="ignore"):
        lhs = np.bincount(row, weights=coeff * vals[col], minlength=rhs.size)
    violated = np.where(
        sense == _LE,
        lhs > rhs + feasibility_tol,
        np.where(sense == _GE, lhs < rhs - feasibility_tol, np.abs(lhs - rhs) > feasibility_tol),
    )
    for r in np.flatnonzero(violated):
        problems.append(f"constraint {r}: {lhs[r]} {_SENSES[sense[r]]} {float(rhs[r])} violated")
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
    for r, con in enumerate(model.constraints):
        out.write(f" c{r}: {term_string(con.coefficients)} {con.sense} {con.rhs:.12g}\n")
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
