"""Exact solver for small mixed binary/continuous linear programs.

Models are assembled through :class:`MilpModel`, one variable or row at a
time or in array blocks, and kept as arrays: column bounds and binary
flags, coefficient triplets, row senses and right-hand sides. :func:`solve`
hands those triplets to HiGHS as one sparse matrix, with no Python loop per
coefficient, and solves to proven optimality (zero MIP gap) via
scipy.optimize's HiGHS backend — ``milp`` when binaries are present,
``linprog`` for purely continuous models. Solutions carry an explicit
status (Optimal / Infeasible / Unbounded / ResourceLimit); hitting a node
or iteration limit is a status, never a silently wrong answer, and solving
the same model twice yields the same solution. HiGHS's presolve
occasionally gives up on a small model with "Solve error" (scipy status 4
without a limit message); such a solve is retried once with presolve off,
and if that attempt fails too, :class:`SolverError` is raised. HiGHS writes
some diagnostics straight to file descriptor 1, bypassing its own output
options, so fd 1 is pointed at the null device for the duration of each
backend call.

scipy's ``sparse`` and ``optimize`` (HiGHS) modules are imported on the
first solve that reaches the backend, not when this module is imported, so
code that never solves (scenario parsing, geometry, the command line's help
and usage errors) never pays for them. The loaded names (``sparse``,
``Bounds``, ``LinearConstraint``, ``linprog``, ``milp``) are attributes of
this module and stay patchable: the loader only fills names that are still
``None``, so a stand-in set before the first solve is the one called.

The module also ships two solver-independent companions used to cross-check
results: :func:`check_solution`, a numpy re-evaluation of every bound and
row on the model's own triplets that shares no code with the solve path
(and no scipy), and :func:`lp_text`, an LP-file-style dump of the model for
eyeballing or feeding external tools.
"""

from __future__ import annotations

import contextlib
import enum
import io
import math
import os
import warnings
from array import array
from dataclasses import dataclass, field
from types import MappingProxyType
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
# rows store their sense as its position in _SENSES
_LE, _GE = _SENSES.index("<="), _SENSES.index(">=")


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


def _require_finite(value: float, what: str) -> float:
    v = float(value)
    if math.isnan(v) or math.isinf(v):
        raise ModelError(f"{what} must be finite, got {value!r}")
    return v


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
        if math.isnan(lo) or math.isnan(up):
            raise ModelError("variable bounds must not be NaN")
        if lo > up:
            raise ModelError(f"lower bound {lo} exceeds upper bound {up}")
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

    def _check_coefficients(self, coefficients: Mapping[int, float]) -> dict[int, float]:
        out: dict[int, float] = {}
        n = len(self._lower)
        for var, coeff in coefficients.items():
            v = int(var)
            if not 0 <= v < n:
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
        value = _require_finite(rhs, "rhs")
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
        if np.isnan(lo).any() or np.isnan(up).any():
            raise ModelError("variable bounds must not be NaN")
        if (lo > up).any():
            k = int(np.argmax(lo > up))
            raise ModelError(f"lower bound {lo[k]} exceeds upper bound {up[k]}")
        codes = np.empty(rhs_.size, dtype=np.int8)
        for k, sense in enumerate(senses):
            if sense not in _SENSES:
                raise ModelError(f"sense must be one of {_SENSES}, got {sense!r}")
            codes[k] = _SENSES.index(sense)
        if not np.isfinite(rhs_).all():
            raise ModelError(f"rhs must be finite, got {float(rhs_[~np.isfinite(rhs_)][0])!r}")
        if ((rows_ < 0) | (rows_ >= rhs_.size)).any():
            raise ModelError(f"row index outside the block's {rhs_.size} rows")
        width = self.num_variables + lo.size
        if ((cols_ < 0) | (cols_ >= width)).any():
            raise ModelError(f"unknown variable id {cols_[(cols_ < 0) | (cols_ >= width)][0]}")
        if not np.isfinite(coeffs_).all():
            k = int(np.argmin(np.isfinite(coeffs_)))
            raise ModelError(f"coefficient of variable {cols_[k]} must be finite, got {float(coeffs_[k])!r}")
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
        self.objective = self._check_coefficients(coefficients)

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
    node/iteration caps in ``limits`` are hit. A HiGHS "Solve error" is
    retried once without presolve; :class:`SolverError` is raised if the
    retry fails as well.
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
    integrality = binary.astype(int)

    # Empty rows are dropped and the rest renumbered in order.
    kept = np.flatnonzero(filled)
    row_lb = np.where(sense[kept] == _LE, -np.inf, rhs[kept])
    row_ub = np.where(sense[kept] == _GE, np.inf, rhs[kept])
    _load_scipy()
    a_mat = sparse.csc_array((coeff, (np.cumsum(filled)[row] - 1, col)), shape=(kept.size, n))

    if integrality.any():
        constraints = [LinearConstraint(a_mat, row_lb, row_ub)] if kept.size else []

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
        lb, ub = row_lb, row_ub
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
