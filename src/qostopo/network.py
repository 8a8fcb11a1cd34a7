"""Geometric model of an ad-hoc wireless sensor network.

Nodes sit at fixed planar coordinates. Transmitting from node ``i`` to node
``j`` costs ``d(i, j) ** a`` energy units (``a`` is the path-loss exponent),
capped by the maximum transmission power ``P``. A node transmitting with
power ``p`` reaches every node whose link energy is at most ``p`` — the
broadcast property — so the only useful power settings for a node are ``0``
and the link energies of the other nodes. This module provides distances,
link energies, those per-node power levels, the directed link set induced by
a power assignment, the smallest symmetric broadcast-closed link set around
a route, and the bidirectional closure used for routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

__all__ = ["NetworkModel", "symmetric_closure"]


@dataclass(frozen=True)
class NetworkModel:
    """Immutable network instance.

    Attributes:
        positions: one ``(x, y)`` coordinate pair per node; node ids are the
            dense indices ``0 .. n-1`` in this order.
        max_power: cap ``P`` on any single transmission energy (> 0).
        bandwidth: per-node bandwidth budget ``B`` in demand units (> 0).
        path_loss_exponent: exponent ``a`` of the energy law ``d ** a`` (> 0).
    """

    positions: tuple[tuple[float, float], ...]
    max_power: float
    bandwidth: float
    path_loss_exponent: float = 2.0

    def __post_init__(self) -> None:
        pts = tuple((float(x), float(y)) for x, y in self.positions)
        object.__setattr__(self, "positions", pts)
        object.__setattr__(self, "max_power", float(self.max_power))
        object.__setattr__(self, "bandwidth", float(self.bandwidth))
        object.__setattr__(self, "path_loss_exponent", float(self.path_loss_exponent))
        if len(pts) < 2:
            raise ValueError("a network needs at least 2 nodes")
        if not all(math.isfinite(c) for p in pts for c in p):
            raise ValueError("node coordinates must be finite")
        if not (math.isfinite(self.max_power) and self.max_power > 0):
            raise ValueError("max_power must be positive and finite")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError("bandwidth must be positive and finite")
        if not (math.isfinite(self.path_loss_exponent) and self.path_loss_exponent > 0):
            raise ValueError("path_loss_exponent must be positive and finite")
        # float equality (and hashing) treats -0.0 as 0.0, as distance does
        first: dict[tuple[float, float], int] = {}
        for j, p in enumerate(pts):
            i = first.setdefault(p, j)
            if i != j:
                raise ValueError(f"nodes {i} and {j} share identical coordinates")

    @property
    def node_count(self) -> int:
        return len(self.positions)

    @property
    def distance_matrix(self) -> np.ndarray:
        """Pairwise Euclidean distances, shape (n, n), zero diagonal; computed
        on each access, since only ``energy_matrix`` is kept."""
        arr = np.asarray(self.positions, dtype=float)
        diff = arr[:, None, :] - arr[None, :, :]
        return np.hypot(diff[..., 0], diff[..., 1])

    @cached_property
    def energy_matrix(self) -> np.ndarray:
        """Pairwise link energies ``d ** a``, shape (n, n), zero diagonal;
        computed on first access and kept."""
        return self.distance_matrix ** self.path_loss_exponent

    def _check_pair(self, i: int, j: int) -> None:
        n = self.node_count
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"node index out of range: ({i}, {j}) with n={n}")
        if i == j:
            raise ValueError(f"identical node indices: {i}")

    def distance(self, i: int, j: int) -> float:
        """Euclidean distance between two distinct nodes."""
        self._check_pair(i, j)
        (xi, yi), (xj, yj) = self.positions[i], self.positions[j]
        return float(np.hypot(xi - xj, yi - yj))

    def link_energy(self, i: int, j: int) -> float:
        """Energy ``d(i, j) ** a`` needed for i to transmit directly to j."""
        self._check_pair(i, j)
        return float(self.energy_matrix[i, j])

    def power_levels(self) -> list[np.ndarray]:
        """Per-node candidate transmission powers.

        For node ``i``: ``0`` (radio off) plus every distinct link energy
        ``d(i, j) ** a`` that does not exceed ``max_power``, sorted ascending.
        These are exactly the breakpoints at which the node's induced link set
        changes, so any power search can be restricted to them.
        """
        levels = []
        n = self.node_count
        for i in range(n):
            e = np.delete(self.energy_matrix[i], i)
            e = e[e <= self.max_power]
            levels.append(np.unique(np.concatenate(([0.0], e))))
        return levels

    def induced_links(self, power) -> set[tuple[int, int]]:
        """Directed links obtained when each node transmits at ``power[i]``.

        Link ``(i, j)`` is present iff ``link_energy(i, j) <= power[i]``;
        the result therefore contains, with any link, every link from the
        same node to a closer (or equally distant) node.
        """
        p = np.asarray(power, dtype=float)
        n = self.node_count
        if p.shape != (n,):
            raise ValueError(f"power must have one entry per node ({n}), got shape {p.shape}")
        if np.any(~np.isfinite(p)) or np.any(p < 0.0) or np.any(p > self.max_power):
            raise ValueError("each power must satisfy 0 <= power[i] <= max_power")
        reach = self.energy_matrix <= p[:, None]
        np.fill_diagonal(reach, False)
        return {(int(i), int(j)) for i, j in np.argwhere(reach)}

    def broadcast_closure(self, links) -> set[tuple[int, int]]:
        """Smallest symmetric, broadcast-closed link set containing ``links``.

        Each node's power starts at its costliest given link; powers are
        then raised until every induced link is also induced in reverse.
        Every added link is no costlier than the given link that forced it,
        so the costliest link energy never grows.
        """
        energy = self.energy_matrix.tolist()
        n = self.node_count
        power = [0.0] * n
        for i, j in links:
            self._check_pair(i, j)
            power[i] = max(power[i], energy[i][j])
        # A node's power reaches j when energy[i][j] <= power[i], and then
        # j's power must reach i. Only a node whose power rose can reach a
        # new node, so it is the only one to look at again; a node at power
        # 0 reaches no node that needs more than 0.
        pending = [i for i in range(n) if power[i] > 0.0]
        while pending:
            i = pending.pop()
            reach = power[i]
            for j, e in enumerate(energy[i]):
                if e <= reach and e > power[j] and j != i:
                    power[j] = e
                    pending.append(j)
        return {(i, j) for i in range(n) for j, e in enumerate(energy[i]) if e <= power[i] and j != i}


def symmetric_closure(links) -> set[tuple[int, int]]:
    """Undirected edges supported in both directions.

    Keeps ``{i, j}`` (returned as the sorted pair ``(min, max)``) iff both
    directed links ``(i, j)`` and ``(j, i)`` are present.
    """
    link_set = set(links)
    return {(i, j) for (i, j) in link_set if i < j and (j, i) in link_set}
