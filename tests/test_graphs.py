import numpy as np
import pytest

from gbfrft.errors import NonFinite, ShapeMismatch
from gbfrft.graphs import (
    Graph,
    cartesian_product,
    make_knn_graph,
    make_named_graph,
)


def edge_set(adj):
    n = adj.shape[0]
    return {(i, j) for i in range(n) for j in range(i + 1, n)
            if adj[i, j] != 0.0 or adj[j, i] != 0.0}


def test_path_edges():
    g = make_named_graph("path", 4)
    assert edge_set(g.adjacency) == {(0, 1), (1, 2), (2, 3)}
    assert np.array_equal(g.adjacency, g.adjacency.T)


def test_cycle_row_sums():
    g = make_named_graph("cycle", 8)
    assert g.adjacency.sum(axis=0).tolist() == [2.0] * 8
    assert g.adjacency.sum(axis=1).tolist() == [2.0] * 8


def test_cycle_two_vertices_is_single_edge():
    # wrap edge coincides with the path edge; it must not double
    g = make_named_graph("cycle", 2)
    assert g.adjacency.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_star_and_complete_degrees():
    s = make_named_graph("star", 5)
    deg = s.adjacency.sum(axis=0)
    assert deg[0] == 4.0
    assert deg[1:].tolist() == [1.0] * 4

    k = make_named_graph("complete", 5)
    assert k.adjacency.sum(axis=0).tolist() == [4.0] * 5


def test_fan_is_hub_plus_rim_path():
    g = make_named_graph("fan", 5)
    assert edge_set(g.adjacency) == {
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)}


def test_weighted_weights_in_unit_interval_and_seeded():
    g1 = make_named_graph("cycle", 6, weighted=True, seed=3)
    g2 = make_named_graph("cycle", 6, weighted=True, seed=3)
    g3 = make_named_graph("cycle", 6, weighted=True, seed=4)
    w = g1.adjacency[g1.adjacency != 0]
    assert np.all(w > 0.0) and np.all(w <= 1.0)
    assert np.array_equal(g1.adjacency, g2.adjacency)
    assert not np.array_equal(g1.adjacency, g3.adjacency)


def test_directed_keeps_one_orientation_per_edge():
    for seed in range(5):
        g = make_named_graph("cycle", 7, directed=True, seed=seed)
        a = g.adjacency
        assert np.count_nonzero(a) == 7
        assert not np.any((a != 0) & (a.T != 0))


def test_directed_weighted_draw_order_is_stable():
    g1 = make_named_graph("path", 5, directed=True, weighted=True, seed=11)
    g2 = make_named_graph("path", 5, directed=True, weighted=True, seed=11)
    assert np.array_equal(g1.adjacency, g2.adjacency)


def test_named_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        make_named_graph("tree", 4)
    with pytest.raises(ValueError):
        make_named_graph("path", 1)
    with pytest.raises(ValueError):
        make_named_graph("fan", 2)


def test_graph_validation():
    with pytest.raises(ShapeMismatch):
        Graph(n=2, adjacency=np.zeros((2, 3)))
    with pytest.raises(NonFinite):
        Graph(n=2, adjacency=np.array([[0.0, np.nan], [np.nan, 0.0]]))
    with pytest.raises(ValueError):
        Graph(n=2, adjacency=np.array([[1.0, 1.0], [1.0, 0.0]]))  # self loop
    with pytest.raises(ValueError):
        Graph(n=2, adjacency=np.array([[0.0, 1.0], [0.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        Graph(n=2, adjacency=np.array([[0.0, 0.5], [0.5, 0.0]]))  # non-unit weight
    with pytest.raises(ValueError):
        Graph(n=0, adjacency=np.zeros((0, 0)))


def test_adjacency_is_frozen():
    g = make_named_graph("path", 3)
    assert not g.adjacency.flags.writeable
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 5.0


def test_knn_collinear_points():
    # 1's nearest is 0 (index tie-break); union symmetrization adds 1-2
    g = make_knn_graph([0.0, 1.0, 2.0], k=1)
    assert edge_set(g.adjacency) == {(0, 1), (1, 2)}


def test_knn_unit_square_is_cycle():
    pts = [[0, 0], [1, 0], [0, 1], [1, 1]]
    g = make_knn_graph(pts, k=2)
    assert edge_set(g.adjacency) == {(0, 1), (0, 2), (1, 3), (2, 3)}
    assert g.adjacency.sum(axis=0).tolist() == [2.0] * 4


def test_knn_degrees_at_least_k():
    rng = np.random.default_rng(0)
    for trial in range(5):
        pts = rng.normal(size=(12, 2))
        g = make_knn_graph(pts, k=3)
        deg = (g.adjacency != 0).sum(axis=0)
        assert np.all(deg >= 3)
        assert np.array_equal(g.adjacency, g.adjacency.T)


def knn_adjacency_loop(pts, k):
    """The per-row reference: sort each row by (distance, index), skip the
    point itself, keep k, and symmetrize by union."""
    pts = np.asarray(pts, dtype=np.float64).reshape(len(pts), -1)
    n = pts.shape[0]
    diff = pts[:, None, :] - pts[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    adj = np.zeros((n, n))
    idx = np.arange(n)
    for i in range(n):
        order = np.lexsort((idx, dist2[i]))
        picked = [j for j in order if j != i][:k]
        adj[i, picked] = 1.0
        adj[picked, i] = 1.0
    return adj


def test_knn_matches_the_per_row_reference_with_ties():
    rng = np.random.default_rng(3)
    clouds = []
    for side in (4, 8, 20):   # pixel grids: many equal distances
        rr, cc = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        clouds.append(np.stack([rr.ravel(), cc.ravel()], axis=1).astype(float))
    clouds.append(np.repeat(rng.normal(size=(5, 2)), 3, axis=0))   # duplicate points
    clouds.append(np.linspace(0.0, 1.0, 12)[:, None] * [[1.0, 2.0]])   # collinear
    clouds.append(rng.normal(size=(30, 3)))
    clouds.append([[0.0], [1e200], [-1e200], [2e200]])   # squared distances overflow to inf
    for pts in clouds:
        for k in range(1, min(8, len(pts) - 1) + 1):
            assert np.array_equal(make_knn_graph(pts, k).adjacency, knn_adjacency_loop(pts, k)), (len(pts), k)


def test_knn_rejects_bad_input():
    with pytest.raises(ValueError):
        make_knn_graph([[0, 0], [1, 1]], k=2)
    with pytest.raises(ValueError):
        make_knn_graph([[0, 0], [1, 1]], k=0)
    with pytest.raises(NonFinite):
        make_knn_graph([[0.0, np.inf], [1, 1], [2, 2]], k=1)


def test_cartesian_product_of_two_edges_is_square_cycle():
    p2 = make_named_graph("path", 2)
    pg = cartesian_product(p2, p2)
    assert pg.n == 4
    assert pg.shape == (2, 2)
    assert edge_set(np.asarray(pg.adjacency)) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_cartesian_product_ordering():
    """Vertex (i, j) sits at index i + j*n1, so the product adjacency must
    equal kron(A2, I) + kron(I, A1)."""
    g1 = make_named_graph("path", 3, weighted=True, seed=1)
    g2 = make_named_graph("cycle", 4, weighted=True, seed=2)
    pg = cartesian_product(g1, g2)
    expected = np.kron(g2.adjacency, np.eye(3)) + np.kron(np.eye(4), g1.adjacency)
    assert np.array_equal(np.asarray(pg.adjacency), expected)
    assert pg.weighted and not pg.directed


def test_product_degree_is_sum_of_factor_degrees():
    g1 = make_named_graph("star", 4)
    g2 = make_named_graph("path", 3)
    pg = cartesian_product(g1, g2)
    d1 = g1.adjacency.sum(axis=0)
    d2 = g2.adjacency.sum(axis=0)
    dp = np.asarray(pg.adjacency).sum(axis=0)
    for j in range(3):
        for i in range(4):
            assert dp[i + j * 4] == d1[i] + d2[j]
