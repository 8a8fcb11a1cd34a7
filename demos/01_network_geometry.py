"""Network geometry: distances, link energies, and useful power levels.

Transmission energy follows a power law of distance, and a node that can
reach a far neighbour automatically reaches every nearer one. That makes
each node's menu of *useful* power settings finite: zero, or exactly the
energy needed for one of the other nodes. Everything downstream leans on
that observation: the brute-force enumerations in the test suite search
only those levels, and the routing MILP needs no link variables at all —
a route's enabled links are its minimal symmetric broadcast closure
(``NetworkModel.broadcast_closure``), which is never costlier than the
route's costliest hop.
"""

import numpy as np

from qostopo import NetworkModel, symmetric_closure

rng = np.random.default_rng(7)
net = NetworkModel(
    rng.uniform(0.0, 30.0, size=(6, 2)),
    max_power=900.0,
    bandwidth=50.0,
    path_loss_exponent=2.0,
)

print(f"{net.node_count} nodes in a 30 x 30 field, energy = distance^2, cap {net.max_power:g}")
print("\npairwise link energies (rounded):")
print(np.round(net.energy_matrix, 1))

print("\nper-node useful power levels (0 plus the reachable link energies):")
for node, levels in enumerate(net.power_levels()):
    pretty = ", ".join(f"{lv:.1f}" for lv in levels)
    print(f"  node {node}: [{pretty}]")

# Pick a mid-range power for everyone and inspect the induced topology.
power = np.array([lv[len(lv) // 2] for lv in net.power_levels()])
links = net.induced_links(power)
edges = symmetric_closure(links)
print(f"\nwith mid-range powers {np.round(power, 1)}:")
print(f"  {len(links)} directed links, {len(edges)} bidirectional edges")
print(f"  edges: {sorted(edges)}")

# The broadcast property, demonstrated on node 0: every enabled neighbour
# is nearer than every disabled one.
reached = sorted(j for i, j in links if i == 0)
missed = sorted(j for j in range(net.node_count) if j != 0 and (0, j) not in links)
print(f"\nnode 0 reaches {reached} and misses {missed}")
if reached and missed:
    assert max(net.distance(0, j) for j in reached) <= min(net.distance(0, j) for j in missed)
    print("  (every reached node is nearer than every missed one — broadcast property)")
