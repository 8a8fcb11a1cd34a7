"""Independent reference implementations used to cross-check the solvers.

Nothing here calls into the solver wrappers under test: MILPs are settled by
exhaustive enumeration of the binary variables (with direct dense linprog
calls for any continuous remainder), and single-request routing is settled
by brute force over every per-node power assignment crossed with every
simple path inside the hop budget, or over the simple paths alone ordered
by their costliest arc and then their total energy. All are exponential
and only meant for the small instances the tests generate. The load LP's
optimum is settled by one scipy ``linprog`` call on a formulation written
out here, one commodity per request and no arc closed.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


def _empty_row_ok(sense, rhs):
    if sense == "<=":
        return 0.0 <= rhs
    if sense == ">=":
        return 0.0 >= rhs
    return rhs == 0.0


def enumerate_milp(model, feasibility_tol=1e-9):
    """Best objective value by exhaustive enumeration of the binaries.

    Pure-binary models are evaluated row by row over every assignment at
    once; models with continuous variables complete each binary assignment
    with a dense LP over the continuous block. Returns the optimal objective
    as a float, or ``None`` when no assignment is feasible. Raises if any
    completion LP is unbounded (the generators never build such models).
    """
    n = model.num_variables
    binary = model.binary_ids
    bset = set(binary)
    cont = [i for i in range(n) if i not in bset]

    obj = np.zeros(n)
    for var, coeff in model.objective.items():
        obj[var] = coeff

    rows = []
    for con in model.constraints:
        if not con.coefficients:
            if not _empty_row_ok(con.sense, con.rhs):
                return None
            continue
        rows.append(con)

    k = len(binary)
    bpos = {v: i for i, v in enumerate(binary)}
    codes = np.arange(2**k, dtype=np.int64)
    assignments = ((codes[:, None] >> np.arange(k)) & 1).astype(float)

    if not cont:
        feasible = np.ones(len(codes), dtype=bool)
        for con in rows:
            coeff = np.zeros(k)
            for var, c in con.coefficients.items():
                coeff[bpos[var]] = c
            lhs = assignments @ coeff
            if con.sense == "<=":
                feasible &= lhs <= con.rhs + feasibility_tol
            elif con.sense == ">=":
                feasible &= lhs >= con.rhs - feasibility_tol
            else:
                feasible &= np.abs(lhs - con.rhs) <= feasibility_tol
        if not feasible.any():
            return None
        totals = assignments @ obj[binary]
        return float(totals[feasible].min())

    cpos = {v: i for i, v in enumerate(cont)}
    bounds = [(model.variables[v].lower, model.variables[v].upper) for v in cont]
    c_cont = obj[cont]
    c_bin = obj[binary]

    best = None
    for bits in assignments:
        fixed_ok = True
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for con in rows:
            fixed = 0.0
            row = np.zeros(len(cont))
            has_cont = False
            for var, c in con.coefficients.items():
                if var in bpos:
                    fixed += c * bits[bpos[var]]
                else:
                    row[cpos[var]] = c
                    has_cont = True
            resid = con.rhs - fixed
            if not has_cont:
                if con.sense == "<=" and fixed > con.rhs + feasibility_tol:
                    fixed_ok = False
                elif con.sense == ">=" and fixed < con.rhs - feasibility_tol:
                    fixed_ok = False
                elif con.sense == "=" and abs(fixed - con.rhs) > feasibility_tol:
                    fixed_ok = False
                if not fixed_ok:
                    break
                continue
            if con.sense == "<=":
                a_ub.append(row)
                b_ub.append(resid)
            elif con.sense == ">=":
                a_ub.append(-row)
                b_ub.append(-resid)
            else:
                a_eq.append(row)
                b_eq.append(resid)
        if not fixed_ok:
            continue
        res = linprog(
            c_cont,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=bounds,
            method="highs",
        )
        if res.status == 2:
            continue
        if res.status != 0:
            raise AssertionError(f"unexpected linprog status {res.status}: {res.message}")
        total = float(res.fun) + float(bits @ c_bin)
        if best is None or total < best:
            best = total
    return best


def load_lp_linprog(net, requests):
    """Smallest worst-node utilization ``L`` over fractional routings.

    Each request is its own commodity with a flow on every ordered node
    pair. Flow is conserved per commodity and node, and node v's load (the
    flow on its arcs in both directions plus the demand of each request it
    sends or receives) is at most ``bandwidth * L``. A flow that enters its
    sender or leaves its receiver only adds load, so closing those arcs, as
    the solver's model does, leaves the optimum as it is.
    """
    n, k = net.node_count, len(requests)
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    width = 1 + k * len(arcs)
    # variable 0 is L; the flow of request r on arc a is variable 1 + r * len(arcs) + a
    eq, ub = [], [(v, 0, -net.bandwidth) for v in range(n)]
    b_eq, b_ub = np.zeros(k * n), np.zeros(n)
    for r, req in enumerate(requests):
        for a, (i, j) in enumerate(arcs):
            var = 1 + r * len(arcs) + a
            eq += [(r * n + i, var, 1.0), (r * n + j, var, -1.0)]
            ub += [(i, var, 1.0), (j, var, 1.0)]
        b_eq[r * n + req.sender] += req.demand
        b_eq[r * n + req.receiver] -= req.demand
        b_ub[[req.sender, req.receiver]] -= req.demand

    def matrix(triplets, height):
        rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
        return sparse.csr_array((vals, (rows, cols)), shape=(height, width))

    res = linprog(np.eye(1, width).ravel(), A_ub=matrix(ub, n), b_ub=b_ub, A_eq=matrix(eq, k * n), b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise AssertionError(f"unexpected linprog status {res.status}: {res.message}")
    return float(res.fun)


def simple_paths(n, start, goal, max_hops):
    """Every simple path from start to goal using at most max_hops arcs."""
    paths = []
    path = [start]

    def extend():
        node = path[-1]
        if node == goal:
            paths.append(list(path))
            return
        if len(path) - 1 == max_hops:
            return
        for nxt in range(n):
            if nxt not in path:
                path.append(nxt)
                extend()
                path.pop()

    extend()
    return paths


def _feasible_paths(net, request, ledger, threshold):
    """(per-node power need, path) for every simple path within the hop
    budget that passes the per-node bandwidth and fairness checks."""
    n = net.node_count
    energy = net.energy_matrix

    candidates = []
    for path in simple_paths(n, request.sender, request.receiver, request.hop_bound):
        arcs = list(zip(path, path[1:]))
        occupancy = np.zeros(n)
        need = np.zeros(n)
        inc = np.zeros(n)
        for i, j in arcs:
            occupancy[i] += request.demand
            occupancy[j] += request.demand
            need[i] = max(need[i], energy[i, j])
            need[j] = max(need[j], energy[i, j])
            inc[i] += request.demand * energy[i, j]
        if occupancy.max() > net.bandwidth + 1e-9:
            continue
        if threshold is not None:
            combined = ledger.consumed + inc
            scale = max(1.0, abs(threshold), float(combined.max()))
            if combined.max() > combined.mean() + threshold + 1e-9 * scale:
                continue
        candidates.append((need, path))
    return candidates


def single_request_bruteforce(net, request, ledger, threshold):
    """Minimal worst-case transmission energy by exhaustive search.

    Crosses every per-node power assignment (each node picks one of its
    useful levels) with every simple path within the hop budget. A pair is
    feasible when the assignment's bidirectional closure carries the whole
    path and the path passes the per-node bandwidth and fairness checks; its
    cost is the assignment's largest power. Returns ``(energy, path)`` for
    the cheapest feasible pair, or ``None`` when the request cannot be
    routed. Exponential in the node count — keep ``n`` small.
    """
    candidates = _feasible_paths(net, request, ledger, threshold)
    if not candidates:
        return None

    grids = np.meshgrid(*net.power_levels(), indexing="ij")
    assignments = np.stack([g.reshape(-1) for g in grids], axis=1)
    caps = assignments.max(axis=1)

    best = None
    best_path = None
    for need, path in candidates:
        supported = (assignments >= need[None, :] - 1e-12).all(axis=1)
        if not supported.any():
            continue
        cost = float(caps[supported].min())
        if best is None or cost < best:
            best = cost
            best_path = path
    if best is None:
        return None
    return best, best_path


def simple_path_bruteforce(net, request, ledger, threshold):
    """The best feasible simple path by its costliest arc, then its energy.

    Same candidates as :func:`single_request_bruteforce`, without the power
    assignments: a path's symmetric broadcast closure costs no more than its
    costliest arc, so that arc's energy is the path's cost, and a path whose
    cost is above ``max_power`` is left out. Paths of equal
    cost are ordered by their total energy (demand times link energy,
    summed over the nodes), then hop count, then node sequence. Returns
    ``(energy, path)`` or ``None``; polynomial in the number of paths, so it
    reaches node counts the power meshgrid cannot.
    """
    energy = net.energy_matrix
    best = None
    for need, path in _feasible_paths(net, request, ledger, threshold):
        if need.max() > net.max_power + 1e-9 * max(1.0, net.max_power):
            continue
        inc = np.zeros(net.node_count)
        for i, j in zip(path, path[1:]):
            inc[i] += request.demand * energy[i, j]
        key = (float(need.max()), sum(inc.tolist()), len(path), path)
        if best is None or key < best:
            best = key
    return None if best is None else (best[0], best[3])
