"""Factor graphs and their Cartesian products.

Adjacency convention: entry (i, j) holds the weight of the edge j -> i.
Undirected graphs are stored symmetrically; unweighted graphs use weight 1.

Product vertex ordering: vertex (i, j) of V1 x V2 maps to index i + j*N1,
so an N1 x N2 signal matrix vectorizes by column stacking. Under that
ordering the product adjacency is the Kronecker sum

    A2 (+) A1 = kron(A2, I_N1) + kron(I_N2, A1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonFinite, ShapeMismatch

NAMED_KINDS = ("path", "cycle", "fan", "star", "complete")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Graph:
    """A finite weighted (di)graph given by its adjacency matrix."""

    n: int
    adjacency: np.ndarray
    directed: bool = False
    weighted: bool = False
    label: str = ""
    seed: int | None = None

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=np.float64)
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if adj.shape != (self.n, self.n):
            raise ShapeMismatch(f"adjacency must be {self.n}x{self.n}, got {adj.shape}")
        if not np.all(np.isfinite(adj)):
            raise NonFinite("adjacency entries must be finite")
        if np.any(np.diag(adj) != 0.0):
            raise ValueError("adjacency diagonal must be zero (no self loops)")
        if not self.directed and not np.array_equal(adj, adj.T):
            raise ValueError("undirected graph requires a symmetric adjacency")
        if not self.weighted:
            nz = adj[adj != 0.0]
            if nz.size and not np.all(nz == 1.0):
                raise ValueError("unweighted graph requires all nonzero weights equal to 1")
        object.__setattr__(self, "adjacency", _freeze(adj))

    @cached_property
    def digest(self) -> bytes:
        """Digest of the adjacency bytes, a cache key for what depends on the
        adjacency alone; safe to keep because the adjacency is read-only."""
        return hashlib.blake2b(self.adjacency.tobytes(), digest_size=16).digest()


@dataclass(frozen=True, eq=False)
class ProductGraph:
    """Cartesian product of two factor graphs (Kronecker-sum adjacency)."""

    factor1: Graph
    factor2: Graph
    adjacency: np.ndarray = field(repr=False)
    directed: bool = False
    weighted: bool = False
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "adjacency", _freeze(self.adjacency))

    @property
    def n(self) -> int:
        return self.factor1.n * self.factor2.n

    @property
    def shape(self) -> tuple[int, int]:
        return (self.factor1.n, self.factor2.n)


def cartesian_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Cartesian product g1 x g2 with column-stacking-compatible ordering."""
    adj = np.kron(g2.adjacency, np.eye(g1.n)) + np.kron(np.eye(g2.n), g1.adjacency)
    label = f"{g1.label or 'g1'}x{g2.label or 'g2'}"
    return ProductGraph(
        factor1=g1,
        factor2=g2,
        adjacency=adj,
        directed=g1.directed or g2.directed,
        weighted=g1.weighted or g2.weighted,
        label=label,
    )


def _named_edges(kind: str, n: int) -> list[tuple[int, int]]:
    # canonical (u < v) edge lists; their order fixes the RNG draw order
    if kind == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        edges = [(i, i + 1) for i in range(n - 1)]
        wrap = (0, n - 1)
        if wrap not in edges:
            edges.append(wrap)
        return edges
    if kind == "star":
        return [(0, i) for i in range(1, n)]
    if kind == "complete":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "fan":
        hub = [(0, i) for i in range(1, n)]
        rim = [(i, i + 1) for i in range(1, n - 1)]
        return hub + rim
    raise ValueError(f"unknown graph kind {kind!r}")


def make_named_graph(
    kind: str,
    n: int,
    directed: bool = False,
    weighted: bool = False,
    seed: int = 0,
) -> Graph:
    """Build one of the standard factor topologies.

    Parameters
    ----------
    kind : str
        One of ``path``, ``cycle``, ``fan``, ``star``, ``complete``. The fan
        is a hub joined to every vertex of a path on the remaining n-1
        vertices; the star is the hub plus n-1 leaves.
    n : int
        Vertex count. At least 2 (3 for ``fan``).
    directed : bool
        When set, each canonical edge keeps a single orientation drawn from
        the seed. Note that any orientation of a tree-shaped topology is a
        DAG whose adjacency is nilpotent, hence not diagonalizable.
    weighted : bool
        When set, edge weights are drawn uniformly from (0, 1].
    seed : int
        Seeds the weight/orientation draws. Per edge, in the canonical edge
        order, the weight (if any) is drawn before the orientation bit.

    Returns
    -------
    Graph
    """
    if kind not in NAMED_KINDS:
        raise ValueError(f"kind must be one of {NAMED_KINDS}, got {kind!r}")
    minimum = 3 if kind == "fan" else 2
    if n < minimum:
        raise ValueError(f"{kind} graph needs at least {minimum} vertices")
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n))
    for u, v in _named_edges(kind, n):
        w = 1.0 - rng.random() if weighted else 1.0
        if directed:
            if rng.random() < 0.5:
                u, v = v, u
            adj[v, u] = w  # arc u -> v
        else:
            adj[u, v] = w
            adj[v, u] = w
    return Graph(n=n, adjacency=adj, directed=directed, weighted=weighted,
                 label=f"{kind}{n}", seed=seed)


def make_knn_graph(coords, k: int) -> Graph:
    """Symmetrized k-nearest-neighbour graph on point coordinates.

    Each point connects to its k nearest others (Euclidean distance, ties
    broken by lower index) and the union of the directed selections is kept,
    so degrees can exceed k.
    """
    pts = np.asarray(coords, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ShapeMismatch("coords must be an (n, d) array")
    if not np.all(np.isfinite(pts)):
        raise NonFinite("coordinates must be finite")
    n = pts.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k + 1:
        raise ValueError(f"need at least k+1={k + 1} points, got {n}")
    diff = pts[:, None, :] - pts[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    # NaN sorts after every distance, +inf included, so no point picks itself;
    # the stable sort breaks ties by lower index
    np.fill_diagonal(dist2, np.nan)
    picked = np.argsort(dist2, axis=1, kind="stable")[:, :k].ravel()
    rows = np.repeat(np.arange(n), k)
    adj = np.zeros((n, n))
    adj[rows, picked] = 1.0
    adj[picked, rows] = 1.0
    return Graph(n=n, adjacency=adj, directed=False, weighted=False, label=f"knn{k}")
