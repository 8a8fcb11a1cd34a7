"""Geometry proofs for the network model.

1. distances and link energies on hand-placed coordinates
2. construction rejections: too few nodes, coincident nodes, bad scalars
3. power levels are exactly {0} plus the reachable link energies
4. induced link sets: broadcast property and monotonicity in power
5. broadcast closure: the smallest symmetric, broadcast-closed superset of
   a link set, never costlier than the links it closes, and equal to the
   repeated n-by-n fixpoint on random paths, paths with cycles and link sets
6. symmetric closure keeps only the bidirectional pairs
"""

import numpy as np
import pytest

from qostopo import NetworkModel, symmetric_closure


def line3(**kw):
    args = dict(max_power=10.0, bandwidth=50.0)
    args.update(kw)
    return NetworkModel(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), **args)


def test_distances_and_energies():
    net = line3()
    assert net.node_count == 3
    assert net.distance(0, 1) == pytest.approx(1.0)
    assert net.distance(0, 2) == pytest.approx(2.0)
    assert net.link_energy(0, 2) == pytest.approx(4.0)
    assert np.allclose(net.distance_matrix, net.distance_matrix.T)
    assert np.all(np.diag(net.energy_matrix) == 0.0)


def test_path_loss_exponent_changes_energy_not_distance():
    cubic = line3(path_loss_exponent=3.0)
    assert cubic.distance(0, 2) == pytest.approx(2.0)
    assert cubic.link_energy(0, 2) == pytest.approx(8.0)


def test_energy_matrix_matches_pairwise_formula():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        a = float(rng.uniform(1.0, 4.0))
        pos = rng.uniform(0.0, 50.0, size=(n, 2))
        net = NetworkModel(pos, max_power=1e9, bandwidth=1.0, path_loss_exponent=a)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                d = np.hypot(*(pos[i] - pos[j]))
                assert net.energy_matrix[i, j] == pytest.approx(d**a, rel=1e-12)


def test_construction_rejections():
    with pytest.raises(ValueError):
        NetworkModel(np.array([[0.0, 0.0]]), max_power=1.0, bandwidth=1.0)
    with pytest.raises(ValueError, match="nodes 1 and 3 share identical coordinates"):
        NetworkModel([(0.0, 0.0), (1.0, 2.0), (5.0, 5.0), (1.0, 2.0)], max_power=1.0, bandwidth=1.0)
    # -0.0 and 0.0 are one coordinate: the two nodes are zero apart
    with pytest.raises(ValueError, match="nodes 0 and 1 share identical coordinates"):
        NetworkModel(np.array([[0.0, 1.0], [-0.0, 1.0]]), max_power=1.0, bandwidth=1.0)
    with pytest.raises(ValueError):
        line3(max_power=0.0)
    with pytest.raises(ValueError):
        line3(bandwidth=-1.0)
    with pytest.raises(ValueError):
        line3(path_loss_exponent=0.0)
    with pytest.raises(ValueError):
        NetworkModel(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), max_power=1.0, bandwidth=1.0)
    with pytest.raises(ValueError):
        NetworkModel(np.array([[0.0, np.nan], [1.0, 0.0]]), max_power=1.0, bandwidth=1.0)


def test_power_levels_are_zero_plus_reachable_energies():
    net = line3()
    levels = net.power_levels()
    assert [list(lv) for lv in levels] == [[0.0, 1.0, 4.0], [0.0, 1.0], [0.0, 1.0, 4.0]]
    # a tight cap prunes the long link from the outer nodes
    capped = line3(max_power=2.0)
    assert [list(lv) for lv in capped.power_levels()] == [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]


def test_power_levels_deduplicate_ties():
    square = NetworkModel(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        max_power=10.0,
        bandwidth=1.0,
    )
    for lv in square.power_levels():
        assert list(lv) == sorted(set(lv))
        assert lv[0] == 0.0


def test_induced_links_broadcast_property():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        pos = rng.uniform(0.0, 30.0, size=(n, 2))
        net = NetworkModel(pos, max_power=400.0, bandwidth=1.0)
        power = rng.uniform(0.0, net.max_power, size=n)
        links = net.induced_links(power)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                assert ((i, j) in links) == (net.energy_matrix[i, j] <= power[i])


def test_induced_links_monotone_in_power():
    net = line3()
    weaker = net.induced_links(np.array([1.0, 0.0, 0.0]))
    stronger = net.induced_links(np.array([4.0, 1.0, 0.5]))
    assert weaker == {(0, 1)}
    assert weaker <= stronger
    assert stronger == {(0, 1), (0, 2), (1, 0), (1, 2)}


def test_induced_links_rejects_power_outside_cap():
    net = line3(max_power=2.0)
    with pytest.raises(ValueError):
        net.induced_links(np.array([100.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        net.induced_links(np.array([-0.5, 1.0, 1.0]))
    # at the cap itself only the short links are reachable
    links = net.induced_links(np.array([2.0, 2.0, 2.0]))
    assert (0, 2) not in links and (0, 1) in links


def _closed(net, links):
    # symmetric, and equal to the links its own per-node powers induce
    power = np.zeros(net.node_count)
    for i, j in links:
        power[i] = max(power[i], net.energy_matrix[i, j])
    return all((j, i) in links for i, j in links) and net.induced_links(power) == links


def test_broadcast_closure_pinned_cases():
    net = line3()
    assert net.broadcast_closure(set()) == set()
    # node 1 sits equally far from both ends, so answering node 0 reaches 2
    relay = {(0, 1), (1, 0), (1, 2), (2, 1)}
    assert net.broadcast_closure({(0, 1)}) == relay
    assert net.broadcast_closure({(0, 1), (1, 2)}) == relay
    # the long hop forces both outer nodes to reach the middle one, and the
    # middle one to answer them
    assert net.broadcast_closure({(0, 2)}) == {(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}
    with pytest.raises(ValueError):
        net.broadcast_closure({(0, 3)})


def test_broadcast_closure_is_the_smallest_closed_superset():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        net = NetworkModel(rng.uniform(0.0, 30.0, size=(n, 2)), max_power=2000.0, bandwidth=1.0)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        picks = rng.random(len(pairs)) < rng.uniform(0.05, 0.4)
        arcs = {pair for pair, pick in zip(pairs, picks) if pick}
        closure = net.broadcast_closure(arcs)
        assert arcs <= closure
        assert _closed(net, closure)
        for link in closure - arcs:
            assert not _closed(net, closure - {link})
        top = max((net.energy_matrix[i, j] for i, j in arcs), default=0.0)
        assert max((net.energy_matrix[i, j] for i, j in closure), default=0.0) == top


def _closure_by_fixpoint(net, links):
    """The broadcast closure as the repeated n-by-n fixpoint computed it:
    raise every node's power to the costliest link reaching it until no
    power moves. The reference for the worklist in broadcast_closure."""
    energy = net.energy_matrix
    power = np.zeros(net.node_count)
    for i, j in links:
        power[i] = max(power[i], energy[i, j])
    while True:
        reach = energy <= power[:, None]
        np.fill_diagonal(reach, False)
        raised = np.maximum(power, np.where(reach, energy, 0.0).max(axis=0))
        if np.array_equal(raised, power):
            return {(int(i), int(j)) for i, j in np.argwhere(reach)}
        power = raised


def test_broadcast_closure_equals_the_fixpoint():
    # random fields of 2 to 15 nodes, the links a simple path, a path plus a
    # cycle, or any set of pairs
    rng = np.random.default_rng(29)
    shapes = {"path": 0, "path and cycle": 0, "any": 0}
    for _ in range(150):
        n = int(rng.integers(2, 16))
        net = NetworkModel(rng.uniform(0.0, 100.0, size=(n, 2)), max_power=2e4, bandwidth=1.0)
        nodes = [int(v) for v in rng.permutation(n)]
        shape = list(shapes)[int(rng.integers(0, 3)) if n >= 3 else 0]
        if shape == "any":
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            links = {pair for pair, pick in zip(pairs, rng.random(len(pairs)) < rng.uniform(0.0, 0.5)) if pick}
        else:
            hops = int(rng.integers(1, n))
            links = set(zip(nodes[:hops], nodes[1:hops + 1]))
            if shape == "path and cycle":
                ring = [int(v) for v in rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)]
                links |= set(zip(ring, ring[1:] + ring[:1]))
        shapes[shape] += 1
        assert net.broadcast_closure(links) == _closure_by_fixpoint(net, links), (n, shape, links)
    assert min(shapes.values()) >= 30


def test_symmetric_closure():
    assert symmetric_closure(set()) == set()
    assert symmetric_closure({(0, 1)}) == set()
    assert symmetric_closure({(0, 1), (1, 0), (1, 2)}) == {(0, 1)}
    assert symmetric_closure({(2, 1), (1, 2), (0, 1), (1, 0)}) == {(0, 1), (1, 2)}


def test_positions_are_immutable_copies():
    coords = np.array([[0.0, 0.0], [3.0, 4.0]])
    net = NetworkModel(coords, max_power=30.0, bandwidth=1.0)
    coords[1, 0] = 99.0
    assert net.distance(0, 1) == pytest.approx(5.0)
