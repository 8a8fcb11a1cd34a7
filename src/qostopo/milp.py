"""Exact solver for small mixed binary/continuous linear programs.

Models are assembled through :class:`MilpModel`, one variable or row at a
time or in array blocks, and kept as read-only numpy arrays in the form
HiGHS reads: column bounds and binary flags, coefficient triplets in row
order, and each row as ``lower <= Ax <= upper``. The builder refuses what
HiGHS would refuse or read as infinite: a matrix coefficient of magnitude
1e15 or more, a finite bound, right-hand side or cost of magnitude 1e20 or
more. Every addition is a block. An empty model keeps a block's own
arrays; a later block replaces each array it extends with one
concatenation, so an array read from a model never changes.
:func:`solve` hands HiGHS those arrays, the triplets sorted by column, as
HiGHS keeps them, and solves to proven optimality (zero MIP gap) or an
explicit status; a node or iteration limit is a status, never a silently
wrong answer. Only the model status, the column values, the objective and
the node count are read back. Models with binaries get scipy ``milp``'s
layout, options and presolve, so their answers match it bit for bit;
continuous ones are solved without presolve, which on the load LP costs
several times what it saves, and without scaling, which the load LP's
coefficients (±1, 2 and the bandwidth) do not need. A caller that knows a
basis of its LP may hand :func:`solve` one code per column and row (basic,
or nonbasic at the lower or upper bound); HiGHS's simplex starts from it,
so an optimal one is proven in no iterations. HiGHS takes any such codes
as an "alien" basis, which it repairs when they are no basis (too many or
too few basic entries, or a singular choice), and runs from its own start
if it refuses them. Nothing else changes with it. HiGHS occasionally
gives up on a small model with "Solve error"; a solve that ends on such a
status is retried once with the other presolve setting, and if that
attempt fails too, :class:`SolverError` is raised. HiGHS writes some
diagnostics straight to file descriptor 1, so fd 1 is pointed at the null
device (opened once and kept open) for each run.

One HiGHS instance serves the runs in the process, and one HighsOptions
object each distinct option set (a few are kept); each run hands the
instance its options and its model afresh, which leaves it holding what a
new instance would. The instance is built anew after a run that ends on
any status other than optimal, infeasible, unbounded or a limit stop, and
when the bound ``highs._Highs`` class is no longer the one it was built
from, so a stand-in set by a test takes effect. It is also let go after
each run on a continuous model: a load LP's run leaves megabytes of
simplex workspace in it, which a fresh instance per LP returns (a load LP
takes milliseconds, building an instance a fraction of one). Runs share
the instance and the fd-1 redirect, so solves must stay on one thread.

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
import functools
import importlib.util
import io
import math
import numbers
import os
import sys
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
    "AT_LOWER",
    "BASIC",
    "AT_UPPER",
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
#: The codes of a starting basis (:func:`solve`), numbered as HiGHS numbers
#: its basis statuses: nonbasic at the lower bound, basic, nonbasic at the
#: upper bound.
AT_LOWER, BASIC, AT_UPPER = 0, 1, 2

_SENSES = ("<=", ">=", "=")
_SENSE_CODES = {sense: code for code, sense in enumerate(_SENSES)}
# A row of sense code c has lower bound -inf when c == _OPEN_SIDE[0] and
# upper bound +inf when c == _OPEN_SIDE[1], from _INFINITE_SIDE.
_OPEN_SIDE = np.array([[_SENSE_CODES["<="]], [_SENSE_CODES[">="]]], dtype=np.int8)
_INFINITE_SIDE = np.array([[-math.inf], [math.inf]])
# HiGHS refuses a matrix coefficient of magnitude _LARGE_COEFFICIENT or more
# (its large_matrix_value) and reads a bound, right-hand side or cost of
# magnitude _INFINITE or more as infinite (infinite_bound, infinite_cost).
_LARGE_COEFFICIENT, _INFINITE = 1e15, 1e20
# A model's storage, by attribute and numpy type: per variable its lower
# and upper bound and binary flag, per triplet its row, variable and
# coefficient, per row its lower and upper bound.
_STORAGE = (("_lower", float), ("_upper", float), ("_binary", bool), ("_row", np.int64), ("_col", np.int64),
            ("_coeff", float), ("_row_lower", float), ("_row_upper", float))


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
    Exceeding either yields ``Status.RESOURCE_LIMIT``. Each is an integer
    (numpy's included, not a bool) in [1, 2**31 - 1], the range of the
    HiGHS options they set, and is stored as a built-in ``int``.
    """

    max_nodes: int = 200_000
    max_lp_iterations: int = 100_000

    def __post_init__(self) -> None:
        for name in ("max_nodes", "max_lp_iterations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 1 <= value <= 2**31 - 1:
                raise ValueError(f"{name} must be an integer in [1, 2**31 - 1], got {value!r}")
            object.__setattr__(self, name, int(value))


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


def _bounds_ok(lower, upper):
    """Whether lower <= upper and HiGHS takes both as given: each below
    _INFINITE in magnitude or infinite on its own side. Elementwise on
    arrays; NaN fails."""
    finite = ((abs(lower) < _INFINITE) | (lower == -math.inf)) & ((abs(upper) < _INFINITE) | (upper == math.inf))
    return finite & (lower <= upper)


def _inequality(lower: float, upper: float) -> tuple[str, float]:
    """The ``(sense, rhs)`` of the row ``lower <= Ax <= upper``; a row keeps
    the rhs it was added with as one bound and the other infinite or equal."""
    if lower == upper:
        return "=", lower
    return ("<=", upper) if lower == -math.inf else (">=", lower)


def _bounds_error(lower: float, upper: float) -> ModelError:
    return ModelError(f"lower bound {lower} exceeds upper bound {upper}" if lower > upper else
                      f"bounds [{lower}, {upper}] must be below {_INFINITE:g} in magnitude, or -inf and +inf")


def _largest(values: np.ndarray) -> float:
    """The largest magnitude in ``values`` (0 for none, NaN if any is NaN)."""
    return np.maximum.reduce(np.abs(values), initial=0.0)


def _sense_codes(senses) -> np.ndarray:
    """The int8 codes of ``senses``, each one of ``"<="``, ``">="``, ``"="``."""
    try:
        return np.array([_SENSE_CODES[sense] for sense in senses], dtype=np.int8)
    except (KeyError, TypeError):
        sense = next(sense for sense in senses if sense not in _SENSES)
        raise ModelError(f"sense must be one of {_SENSES}, got {sense!r}") from None


# Both copy what they are given: a block may keep its arrays as the model's
# storage (MilpModel.add_block), which must not change with the caller's.

def _integers(values, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ModelError(f"{what} must be a 1-d sequence of integers")
    return arr.astype(np.int64)


def _reals(values, what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ModelError(f"{what} must be a 1-d sequence of numbers")
    return arr


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


_NOTHING = {dtype: _read_only(np.zeros(0, dtype)) for _, dtype in _STORAGE}


class MilpModel:
    """Builder for a minimization model over continuous and binary variables.

    Storage is columnar: per variable a lower bound, an upper bound and a
    binary flag; per coefficient a (row, variable, value) triplet, ordered
    by row and within a row by insertion; per row a lower and an upper bound
    on its left-hand side. Each is a read-only numpy array, extended only by
    :meth:`add_block`; :meth:`add_continuous`, :meth:`add_binary` and
    :meth:`add_constraint` add a block of one item. A block that fills an
    empty model is kept as it is. A later block replaces each array it
    extends with a concatenated copy, so an array read from the model keeps
    its values. ``variables`` and ``constraints`` are read-only views
    rebuilt from that storage on each access.
    """

    def __init__(self) -> None:
        for name, dtype in _STORAGE:
            setattr(self, name, _NOTHING[dtype])
        self.objective: dict[int, float] = {}

    # -- building ---------------------------------------------------------

    def add_continuous(self, lower: float = 0.0, upper: float = math.inf) -> int:
        """Add a continuous variable with bounds [lower, upper]; returns its id."""
        return self.add_block(lower=[lower], upper=[upper])[0]

    def add_binary(self) -> int:
        """Add a 0/1 variable; returns its id."""
        return self.add_block(lower=[0.0], upper=[1.0], binary=[True])[0]

    def add_constraint(self, coefficients: Mapping[int, float], sense: str, rhs: float) -> int:
        """Append the row ``sum(coeff * var) <sense> rhs``; returns its index.

        ``sense`` is one of ``"<="``, ``">="``, ``"="``. An empty coefficient
        mapping is accepted; whether it is vacuously true or makes the model
        infeasible is resolved at solve time.
        """
        return self.add_block(rows=[0] * len(coefficients), cols=list(coefficients),
                              coeffs=list(coefficients.values()), senses=[sense], rhs=[rhs])[1]

    def add_block(self, *, lower=(), upper=(), binary=(), rows=(), cols=(), coeffs=(), senses=(),
                  rhs=()) -> tuple[int, int]:
        """Append variables and rows in bulk.

        ``lower[k]``/``upper[k]`` bound the k-th new variable, and
        ``binary[k]``, if given, marks it 0/1; a binary variable's bounds
        must be [0, 1], the bounds :meth:`add_binary` gives. ``rhs[k]`` and
        ``senses[k]`` (one of ``"<="``, ``">="``, ``"="``) close the k-th new
        row, and the row's terms are the triplets with ``rows == k``: the
        variable ``cols`` (an existing id or one added here) and its
        coefficient ``coeffs``. A variable appears at most once per row.
        Every input is checked before anything is appended. Returns the id
        of the first new variable and the index of the first new row.
        """
        lo, up = _reals(lower, "lower"), _reals(upper, "upper")
        flags = np.array(binary) if len(binary) else np.zeros(lo.size, dtype=bool)
        rows_, cols_ = _integers(rows, "rows"), _integers(cols, "cols")
        coeffs_, rhs_ = _reals(coeffs, "coeffs"), _reals(rhs, "rhs")
        if not lo.shape == up.shape == flags.shape:
            raise ModelError(f"{lo.size} lower bounds, {up.size} upper bounds and {flags.size} binary flags differ")
        if flags.dtype != bool:
            raise ModelError("binary must be a sequence of booleans")
        if not rows_.size == cols_.size == coeffs_.size:
            raise ModelError(f"{rows_.size} rows, {cols_.size} cols and {coeffs_.size} coeffs differ in length")
        if len(senses) != rhs_.size:
            raise ModelError(f"{len(senses)} senses for {rhs_.size} right-hand sides")
        codes = _sense_codes(senses)
        width = self.num_variables + lo.size
        try:  # each triplet's cell in the row-major block; refuses indices out of range
            cells = np.ravel_multi_index((rows_, cols_), (rhs_.size, width))
        except ValueError:
            if ((rows_ < 0) | (rows_ >= rhs_.size)).any():
                raise ModelError(f"row index outside the block's {rhs_.size} rows") from None
            if ((cols_ < 0) | (cols_ >= width)).any():
                raise ModelError(f"unknown variable id {cols_[(cols_ < 0) | (cols_ >= width)][0]}") from None
            cells = rows_ * width + cols_
        cells.sort()
        if (cells[1:] == cells[:-1]).any():
            raise ModelError("a variable appears twice in one row")
        if not (rows_[1:] >= rows_[:-1]).all():
            by_row = np.argsort(rows_, kind="stable")
            rows_, cols_, coeffs_ = rows_[by_row], cols_[by_row], coeffs_[by_row]
        _check_column_kinds(lo, up, flags)
        row_bounds = _checked_row_bounds(lo, up, coeffs_, codes, rhs_, cols_)

        first_var, first_row = self.num_variables, self.num_constraints
        arrays = (lo, up, flags, rows_ + first_row if first_row else rows_, cols_, coeffs_, *row_bounds)
        for (name, _), values in zip(_STORAGE, arrays):
            if values.size:
                held = getattr(self, name)
                setattr(self, name, _read_only(np.concatenate((held, values)) if held.size else values))
        return first_var, first_row

    def set_objective(self, coefficients: Mapping[int, float]) -> None:
        """Set the (minimized) objective; omitted variables have coefficient 0."""
        objective: dict[int, float] = {}
        for var, coeff in coefficients.items():
            if isinstance(var, bool) or not isinstance(var, numbers.Integral) or not 0 <= var < self.num_variables:
                raise ModelError(f"unknown variable id {var}")
            value = float(coeff)
            if not abs(value) < _INFINITE:  # NaN fails too
                raise _magnitude_error(f"coefficient of variable {var}", value, _INFINITE)
            objective[int(var)] = value
        self.objective = objective

    # -- introspection ----------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._lower)

    @property
    def num_constraints(self) -> int:
        return len(self._row_lower)

    @property
    def binary_ids(self) -> list[int]:
        return np.flatnonzero(self._binary).tolist()

    @property
    def variables(self) -> tuple[_Variable, ...]:
        """Every variable's bounds and kind, in id order."""
        return tuple(map(_Variable, self._lower.tolist(), self._upper.tolist(), self._binary.tolist()))

    @property
    def constraints(self) -> tuple[_Constraint, ...]:
        """Every row in index order; a row's terms keep their insertion order."""
        cols, coeffs = self._col.tolist(), self._coeff.tolist()
        ends = np.cumsum(np.bincount(self._row, minlength=self.num_constraints)).tolist()
        out, start = [], 0
        for end, lower, upper in zip(ends, self._row_lower.tolist(), self._row_upper.tolist()):
            terms = MappingProxyType(dict(zip(cols[start:end], coeffs[start:end])))
            out.append(_Constraint(terms, *_inequality(lower, upper)))
            start = end
        return tuple(out)

    # The two readers below return the storage itself, not copies; it is
    # read-only, and a later block replaces it rather than changing it.

    def _column_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The lower bounds, upper bounds and binary flags."""
        return self._lower, self._upper, self._binary

    def _row_arrays(self) -> tuple[np.ndarray, ...]:
        """The triplets (row, variable, coefficient) in row order, then the
        row lower and upper bounds."""
        return self._row, self._col, self._coeff, self._row_lower, self._row_upper

    def _matrix(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The triplets column-wise, as HiGHS keeps them: new int32 column
        starts and row indices, and the coefficients, rows ascending within
        each column."""
        # The canonical column-wise form scipy's wrappers handed on: the
        # stored triplets are in row order, so a stable sort by column keeps
        # rows ascending within each column.
        by_col = np.argsort(self._col, kind="stable")
        start = np.zeros(self.num_variables + 1, dtype=np.int32)
        np.cumsum(np.bincount(self._col, minlength=self.num_variables), out=start[1:])
        return start, self._row.astype(np.int32)[by_col], self._coeff[by_col]


def _check_column_kinds(lower: np.ndarray, upper: np.ndarray, binary: np.ndarray) -> None:
    """Raise :class:`ModelError` unless each lower bound is at most its upper
    bound and each binary column's bounds are [0, 1] (NaN fails).

    Reductions go straight to the ufuncs: numpy's array methods for them
    cost a Python call each, which a model built per admission feels.
    """
    if not np.logical_and.reduce(lower <= upper):
        k = int(np.argmin(lower <= upper))
        raise _bounds_error(float(lower[k]), float(upper[k]))
    if np.logical_or.reduce(binary & ((lower != 0.0) | (upper != 1.0))):
        k = int(np.argmax(binary & ((lower != 0.0) | (upper != 1.0))))
        raise ModelError(f"binary variable bounds must be [0, 1], got [{lower[k]}, {upper[k]}]")


def _checked_row_bounds(lower, upper, coeffs, codes, rhs, cols) -> np.ndarray:
    """The lower and upper bound of each row of a block (its rhs, or
    infinite), once the magnitudes of the block's values are checked;
    ``cols[k]`` is the variable of triplet k, named in the message on a
    coefficient too large.
    """
    # All bounds and right-hand sides finite and small, as they mostly are,
    # need no closer look; the cheap test fails on NaN too.
    if not _largest(np.concatenate((lower, upper, rhs))) < _INFINITE:
        bad = ~_bounds_ok(lower, upper)
        if bad.any():
            k = int(np.argmax(bad))
            raise _bounds_error(float(lower[k]), float(upper[k]))
        small = abs(rhs) < _INFINITE
        if not small.all():
            raise _magnitude_error("rhs", float(rhs[np.argmin(small)]), _INFINITE)
    if not _largest(coeffs) < _LARGE_COEFFICIENT:
        k = int(np.argmin(abs(coeffs) < _LARGE_COEFFICIENT))
        raise _magnitude_error(f"coefficient of variable {cols[k]}", float(coeffs[k]), _LARGE_COEFFICIENT)
    return np.where(codes == _OPEN_SIDE, _INFINITE_SIDE, rhs)


def solve(model: MilpModel, limits: SolveLimits | None = None, basis=None) -> Solution:
    """Solve ``model`` to proven optimality or a definite status.

    Deterministic: identical models produce identical solutions. Returns
    ``Status.RESOURCE_LIMIT`` (with the best incumbent, if any) when the
    node/iteration caps in ``limits`` are hit. Models with binaries are
    solved with presolve on, continuous ones with presolve off and no
    scaling. Any other status HiGHS ends on besides optimal, infeasible and
    unbounded (such as "Solve error") is retried once with the other
    presolve setting; :class:`SolverError` is raised if the retry ends on
    one too.

    ``basis``, if given, is HiGHS's starting basis on every run: a pair of
    integer sequences, one code per variable and one per row, each
    :data:`AT_LOWER`, :data:`BASIC` or :data:`AT_UPPER`; anything else
    raises :class:`ModelError`. A row's code says where its left-hand side
    sits. From an optimal basis the simplex proves optimality in no
    iterations, so an iteration cap cannot bind. HiGHS repairs codes that
    are no basis and runs from its own start if it refuses them. A basis
    moves where the simplex starts, not the status it reaches, though on an
    LP with several optima it may reach another one.
    """
    limits = limits or SolveLimits()
    n = model.num_variables
    if basis is not None:
        basis = _basis_codes(basis, n, model.num_constraints)

    matrix = model._matrix()
    row_lower, row_upper = model._row_arrays()[3:]
    # An empty row reads "lower <= 0 <= upper".
    empty = np.bincount(matrix[1], minlength=row_lower.size) == 0
    if np.logical_or.reduce(empty) and np.logical_or.reduce(empty & ((row_lower > 0.0) | (row_upper < 0.0))):
        return Solution(Status.INFEASIBLE)
    if n == 0:
        return Solution(Status.OPTIMAL, values=np.zeros(0), objective_value=0.0)

    c_vec = np.zeros(n)
    for var, value in model.objective.items():
        c_vec[var] = value
    lower, upper, binary = model._column_arrays()
    mip = bool(np.logical_or.reduce(binary))

    _load_scipy()
    with _stdout_silenced():
        for options in _attempts(mip, limits):
            status, values, objective, nodes = _highs(c_vec, (lower, upper), matrix, (row_lower, row_upper),
                                                      binary.astype(np.int32) if mip else None, options, basis)
            solution = _interpret(status, values, objective, nodes, mip)
            if solution is None or not mip:
                _drop_instance()
            if solution is not None:
                return solution
        raise SolverError(f"HiGHS ended with model status {_instance().modelStatusToString(status)!r}")


def _basis_codes(basis, columns: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``basis`` as int8 arrays of codes, once its shape and codes are
    checked against a model of ``columns`` variables and ``rows`` rows."""
    try:
        column_codes, row_codes = basis
    except (TypeError, ValueError):
        raise ModelError("basis must be a pair: one code per variable, one per row") from None
    arrays = []
    for codes, size, what in ((column_codes, columns, "variable"), (row_codes, rows, "row")):
        arr = np.asarray(codes)
        if arr.shape != (size,) or (size and arr.dtype.kind not in "iu"):
            raise ModelError(f"basis needs one integer code per {what}, {size} in all")
        if not np.logical_and.reduce((arr >= AT_LOWER) & (arr <= AT_UPPER)):
            raise ModelError(f"unknown basis code {arr[(arr < AT_LOWER) | (arr > AT_UPPER)][0]} for a {what}")
        arrays.append(arr.astype(np.int8))
    return arrays[0], arrays[1]


@functools.lru_cache(maxsize=8)
def _attempts(mip: bool, limits: SolveLimits) -> tuple[Mapping, Mapping]:
    """The HiGHS options of the first run and of the retry, presolve on and
    then off for MILPs, off and then on for LPs; read-only, as every solve
    with the same kind of model and limits shares them."""
    if mip:
        # the options scipy's milp gave HiGHS
        options = dict(log_to_console=False, mip_max_nodes=limits.max_nodes, mip_rel_gap=0.0,
                       mip_feasibility_tolerance=1e-9)
        presolves = ("on", "off")
    else:
        # the options scipy's linprog gave HiGHS, but presolve off first: on
        # a load LP it costs several times what it saves; and no scaling,
        # which a load LP's coefficients (±1, 2 and one -bandwidth) do not need
        options = dict(highs_debug_level=0, output_flag=False, log_to_console=False, simplex_strategy=1,
                       simplex_scale_strategy=0, simplex_iteration_limit=limits.max_lp_iterations,
                       ipm_iteration_limit=limits.max_lp_iterations)
        presolves = ("off", "on")
    # Tolerances of 1e-9 keep row violations well under the 1e-7 re-check
    # tolerance even with large coefficients (HiGHS's stock is 1e-6 or 1e-7).
    options.update(primal_feasibility_tolerance=1e-9, dual_feasibility_tolerance=1e-9)
    return tuple(MappingProxyType(dict(options, presolve=presolve)) for presolve in presolves)


# The HiGHS instance runs reuse (see the module docstring), and the
# HighsOptions built for each distinct option set, at most _OPTION_SETS.
_solver = None
_option_sets: dict = {}
_OPTION_SETS = 8


def _instance():
    """The shared HiGHS instance, built anew when there is none or when the
    bound ``highs._Highs`` is not the class it was built from."""
    global _solver
    if type(_solver) is not highs._Highs:
        _solver = highs._Highs()
    return _solver


def _drop_instance() -> None:
    """Let the next run build a new HiGHS instance."""
    global _solver
    _solver = None


def _options(options: Mapping):
    """The HighsOptions holding ``options``, built once per distinct set."""
    key = (highs.HighsOptions, *options.items())
    held = _option_sets.get(key)
    if held is None:
        if len(_option_sets) >= _OPTION_SETS:
            del _option_sets[next(iter(_option_sets))]
        held = _option_sets[key] = highs.HighsOptions()
        for name, value in options.items():
            setattr(held, name, value)
    return held


def _highs(cost, bounds, matrix, row_bounds, integrality, options: Mapping, basis=None):
    """Run HiGHS once on ``min cost @ x`` s.t. ``row_bounds`` bound ``A @ x``
    and ``bounds`` bound ``x``; ``matrix`` is ``A`` as CSC (start, index,
    value), the form HiGHS keeps, and ``integrality`` flags integer columns
    as int32 (``None``: continuous). ``basis``, if not ``None``, holds the
    column and row codes of a starting basis (see :func:`solve`), handed to
    HiGHS with ``setBasis`` as an alien basis, which HiGHS repairs if need
    be; it keeps its own start if it refuses them.
    Returns the model status, column values, objective and node count.
    HiGHS copies each array in one go (``passModel``'s array overload) and
    reads as many items as the sizes say, so those are checked first.

    The run goes to the one instance the process keeps (:func:`_instance`),
    handed its options and its model afresh: ``passModel`` drops the
    previous model, solution and basis, so the instance holds what a new
    one would. :func:`solve` drops the instance after a run on a continuous
    model or one that ends on any status other than optimal, infeasible,
    unbounded or a limit stop, and the next run builds a new one. The
    instance and the fd-1 redirect are shared, so solves must stay on one
    thread.
    """
    kinds = np.zeros(cost.size, dtype=np.int32) if integrality is None else integrality
    columns = {cost.size, bounds[0].size, bounds[1].size, kinds.size, matrix[0].size - 1}
    rows = {row_bounds[0].size, row_bounds[1].size}
    if len(columns) != 1 or len(rows) != 1 or matrix[1].size != matrix[2].size:
        raise ValueError("HiGHS model arrays disagree in size")
    solver = _instance()
    solver.passOptions(_options(options))
    status = solver.passModel(cost.size, row_bounds[0].size, matrix[2].size, int(highs.MatrixFormat.kColwise),
                              int(highs.ObjSense.kMinimize), 0.0, cost, *bounds, *row_bounds, *matrix, kinds)
    if status == highs.HighsStatus.kError:
        return highs.HighsModelStatus.kModelError, None, math.inf, 0
    if basis is not None:
        start = highs.HighsBasis()
        start.col_status, start.row_status = map(_basis_statuses, basis)
        solver.setBasis(start)
    solver.run()
    nodes = solver.getInfoValue("mip_node_count")[1]
    return solver.getModelStatus(), solver.getSolution().col_value, solver.getObjectiveValue(), nodes


def _basis_statuses(codes: np.ndarray) -> list:
    """HiGHS's basis statuses for int8 ``codes``. A start list of one shared
    status, with only the entries that differ set, costs a fraction of a
    conversion per entry (a load LP has ~10k columns, a few hundred basic)."""
    kinds = highs.HighsBasisStatus
    members = (kinds.kLower, kinds.kBasic, kinds.kUpper)
    statuses = [members[AT_LOWER]] * codes.size
    other = np.flatnonzero(codes != AT_LOWER)
    for k, code in zip(other.tolist(), codes[other].tolist()):
        statuses[k] = members[code]
    return statuses


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


# The null device, opened by the first redirect and kept open for the next.
_null = None


@contextlib.contextmanager
def _stdout_silenced():
    """Point file descriptor 1 at the null device; restore it on exit.

    The redirect is process-wide, so solves must not run on several threads
    at once.
    """
    global _null
    try:
        saved = os.dup(1)
    except OSError:  # no fd 1 to protect
        yield
        return
    try:
        if _null is None:
            _null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(_null, 1)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


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


def check_solution(model: MilpModel, values) -> list[str]:
    """Independently re-check ``values`` against every bound and constraint.

    A numpy re-evaluation of the model's own bounds and triplets that shares
    nothing with :func:`solve` (no scipy, no matrix assembly). Each row's
    left-hand side is summed over its terms in insertion order. Returns a
    list of human-readable violation descriptions, variables first, then
    rows, each in index order; an empty list means the assignment is
    feasible within :data:`FEASIBILITY_TOL` and integral on binaries within
    :data:`INTEGRALITY_TOL`.
    """
    vals = np.asarray(values, dtype=float)
    problems: list[str] = []
    if vals.shape != (model.num_variables,):
        return [f"expected {model.num_variables} values, got shape {vals.shape}"]
    lower, upper, binary = model._column_arrays()
    finite = np.isfinite(vals)
    with np.errstate(invalid="ignore"):
        outside = finite & ((vals < lower - FEASIBILITY_TOL) | (vals > upper + FEASIBILITY_TOL))
        fractional = finite & binary & (np.minimum(np.abs(vals), np.abs(vals - 1.0)) > INTEGRALITY_TOL)
    for i in np.flatnonzero(~finite | outside | fractional):
        v = vals[i]
        if not finite[i]:
            problems.append(f"variable {i} has non-finite value {v}")
            continue
        if outside[i]:
            problems.append(f"variable {i} = {v} outside [{float(lower[i])}, {float(upper[i])}]")
        if fractional[i]:
            problems.append(f"binary variable {i} = {v} is not integral")

    row, col, coeff, row_lower, row_upper = model._row_arrays()
    # bincount adds each row's terms one by one in triplet order, like a loop
    with np.errstate(all="ignore"):
        lhs = np.bincount(row, weights=coeff * vals[col], minlength=row_lower.size)
    violated = (lhs < row_lower - FEASIBILITY_TOL) | (lhs > row_upper + FEASIBILITY_TOL)
    for r in np.flatnonzero(violated):
        sense, rhs = _inequality(row_lower[r], row_upper[r])
        problems.append(f"constraint {r}: {lhs[r]} {sense} {float(rhs)} violated")
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
