"""Routing one request: the energy cap MILP and what bends its answer.

Each admission solves a small mixed-integer program over route arcs, whose
order variables leave one simple path as the only integer solution: route
the request within its hop budget, respect per-node bandwidth, and —
when a fairness threshold is set — keep every node's cumulative energy
within that slack of the network average. The objective is the worst
single-link transmission energy, so relaying through near neighbours wins
whenever the constraints allow it. The enabled links are then the minimal
symmetric broadcast closure of the route, which never costs more than the
route's costliest hop.
"""

import numpy as np

from qostopo import EnergyLedger, NetworkModel, Request, solve_single_request

net = NetworkModel(
    np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
    max_power=10.0,
    bandwidth=50.0,
)
fresh = EnergyLedger.empty(3)


def show(tag, sol):
    if sol.lost:
        print(f"{tag}: LOST")
        return
    path = " -> ".join(str(v) for v in sol.routes[0])
    print(f"{tag}: path {path}, energy cap {sol.max_energy:g}, "
          f"per-node commit {np.round(sol.node_energy, 2)}")


print("three collinear nodes one unit apart, demand 2 from node 0 to node 2\n")

show("hop budget 3 (relay allowed) ", solve_single_request(net, Request(0, 2, 2.0, 3), fresh, None))
show("hop budget 1 (direct forced) ", solve_single_request(net, Request(0, 2, 2.0, 1), fresh, None))

tight = NetworkModel(net.positions, max_power=10.0, bandwidth=3.0)
show("bandwidth 3 (relay too busy) ", solve_single_request(tight, Request(0, 2, 2.0, 3), fresh, None))

weak = NetworkModel(net.positions, max_power=3.0, bandwidth=50.0)
show("power cap 3, hop budget 1    ", solve_single_request(weak, Request(0, 2, 2.0, 1), fresh, None))

print("\nfairness: node 1 has already burned 100 units, everyone else none")
hot = EnergyLedger(np.array([0.0, 100.0, 0.0]))
show("threshold 1000 (slack)       ", solve_single_request(net, Request(0, 2, 2.0, 3), hot, 1000.0))
show("threshold 0 (no headroom)    ", solve_single_request(net, Request(0, 2, 2.0, 3), hot, 0.0))
