"""Fractional Fourier transforms on graphs, time axes, and their products.

A product transform holds one fractional operator per factor and acts on
N1 x N2 signal matrices as

    forward:  X_f = M1 @ X @ M2.T
    inverse:  X   = M1inv @ X_f @ M2inv.T

which under column stacking is the vec-operator kron(M2, M1).

Two conventions are supported for the graph-side factor:

* ``transform-power`` (default): fractionalize the graph Fourier matrix
  F_G = V_A^{-1} of the adjacency eigendecomposition, so order 1 is the
  plain GFT. For undirected graphs F_G is orthogonal and every fractional
  power is unitary.
* ``shift-power``: fractionalize the adjacency itself, so order 1 is the
  shift operator.

The paper's four transforms are one family, listed once in METHOD_TABLE:
a graph power on the first factor times a graph power (2D-GFRFT, tied
orders; 2D-GBFRFT), a DFT power (JFRFT) or a blend of the two (hybrid).
:meth:`Method.build` makes every transform; the constructors look it up.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatch, SingularBlend
from .graphs import Graph, make_named_graph
from .spectral import (
    CONDITION_LIMIT,
    FactorOperator,
    FractionalOperator,
    SpectralBasis,
    dense_powers,
    eig_general,
    fractional_power,
    guarded_inverse,
)

CONVENTIONS = ("transform-power", "shift-power")

# Bound on the bytes of the arrays the basis cache holds. A 400-vertex graph
# basis with its adjacency takes about 7.7 MB.
BASIS_CACHE_BYTES = 64 * 2**20


def _held_bytes(content: np.ndarray | None, basis: SpectralBasis) -> int:
    """Bytes of a cache entry's arrays: its matrix and every part of its
    basis, the lazily cached ones included."""
    parts = [content, *vars(basis).values(), *(basis.mix or ())]
    return sum(a.nbytes for a in parts if isinstance(a, np.ndarray))


class _BasisCache:
    """Spectral bases keyed by what they depend on, least recently used
    first. A key names the matrix (for a graph: convention, shape and
    content digest); ``content`` is that matrix, compared exactly on every
    hit, so a digest collision costs a decomposition and never returns the
    wrong basis. An entry's bytes are counted at its last use, so parts a
    basis caches lazily count from its next use on."""

    def __init__(self):
        self.entries: OrderedDict[tuple, tuple[np.ndarray | None, SpectralBasis, int]] = OrderedDict()
        self.nbytes = self.hits = self.misses = 0

    def get(self, key: tuple, content: np.ndarray | None, build) -> SpectralBasis:
        entry = self.entries.pop(key, None)
        if entry is not None:
            self.nbytes -= entry[2]
        if entry is not None and (entry[0] is content or np.array_equal(entry[0], content)):
            self.hits += 1
            basis = entry[1]
        else:
            self.misses += 1
            basis = build()
        # keep the caller's own array, so its next calls pass the identity test
        size = _held_bytes(content, basis)
        self.entries[key] = (content, basis, size)
        self.nbytes += size
        while len(self.entries) > 1 and self.nbytes > BASIS_CACHE_BYTES:
            self.nbytes -= self.entries.popitem(last=False)[1][2]
        return basis


_BASES = _BasisCache()


def basis_cache_stats() -> dict[str, int]:
    """Entries, bytes held, hits and misses of the one spectral-basis cache
    behind :func:`graph_basis` and :func:`dft_basis`."""
    return {"entries": len(_BASES.entries), "bytes": _BASES.nbytes,
            "hits": _BASES.hits, "misses": _BASES.misses}


def dft_matrix(T: int) -> np.ndarray:
    """Unitary DFT matrix W[m, n] = exp(-2j pi m n / T) / sqrt(T)."""
    if T < 1:
        raise ValueError("T must be at least 1")
    m = np.arange(T)
    return np.exp(-2j * np.pi * np.outer(m, m) / T) / np.sqrt(T)


def _check_convention(convention: str):
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


def graph_basis(g: Graph, convention: str = "transform-power") -> SpectralBasis:
    """Spectral basis backing the graph-side fractional operator.

    Cached by content: graphs with equal adjacencies share one basis per
    convention, and it outlives the graph that first asked for it (see
    :func:`basis_cache_stats`)."""
    _check_convention(convention)

    def build():
        basis = eig_general(g.adjacency)
        # F_G = V_A^{-1}; only the convention asked for is kept
        return eig_general(basis.V_inv) if convention == "transform-power" else basis

    return _BASES.get((convention, g.adjacency.shape, g.digest), g.adjacency, build)


def gfrft(g: Graph, alpha: float, convention: str = "transform-power") -> FractionalOperator:
    """Graph fractional Fourier operator of order ``alpha``."""
    return fractional_power(graph_basis(g, convention), alpha)


def dft_basis(T: int) -> SpectralBasis:
    """Spectral basis of the unitary DFT matrix (cached per length)."""
    return _BASES.get(("dft", T), None, lambda: eig_general(dft_matrix(T)))


def dfrft(T: int, alpha: float) -> FractionalOperator:
    """Discrete fractional Fourier operator on a length-T time axis.

    Fractionalizes the unitary DFT matrix through its eigendecomposition,
    so the operator is unitary for every order and order 1 is the DFT.
    """
    return fractional_power(dft_basis(T), alpha)


@dataclass(eq=False)
class DenseOperator(FactorOperator):
    """A factor operator held as its four dense parts, such as a temporal
    blend (:func:`blend_parts`)."""

    order: float
    matrix: np.ndarray
    inverse: np.ndarray
    derivative: np.ndarray
    inverse_derivative: np.ndarray

    _PARTS = {"fwd": "matrix", "inv": "inverse", "dfwd": "derivative", "dinv": "inverse_derivative"}

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def _apply(self, M, X):
        return M @ X


@dataclass(eq=False)
class ProductTransform:
    """Separable two-factor transform with independent fractional orders."""

    op1: FactorOperator
    op2: FactorOperator
    kind: str
    orders: tuple[float, float]
    lam: float | None = None

    @property
    def n1(self) -> int:
        return self.op1.n

    @property
    def n2(self) -> int:
        return self.op2.n

    def apply(self, X, direction: str = "forward") -> np.ndarray:
        return apply(self, X, direction)

    def vec_operator(self, direction: str = "forward") -> np.ndarray:
        """Dense kron(M2, M1) operator acting on column-stacked signals."""
        if direction == "forward":
            return np.kron(self.op2.matrix, self.op1.matrix)
        if direction == "inverse":
            return np.kron(self.op2.inverse, self.op1.inverse)
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def apply(t: ProductTransform, X, direction: str = "forward") -> np.ndarray:
    """Apply the product transform to an N1 x N2 signal matrix."""
    X = np.asarray(X)
    if X.shape != (t.n1, t.n2):
        raise ShapeMismatch(f"signal must be {t.n1}x{t.n2}, got {X.shape}")
    if direction == "forward":
        kind = "fwd"
    elif direction == "inverse":
        kind = "inv"
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return t.op2.rmul_t(t.op1.lmul(X, kind), kind)


def blend_basis(g2: Graph, lam: float, convention: str = "transform-power") -> SpectralBasis | None:
    """The spectral basis of the second factor at blend weight ``lam``: the
    DFT on g2.n points at lam = 1, the graph basis of g2 at lam = 0, and None
    in between, where the blend is a dense matrix with no eigenbasis here."""
    if lam == 1.0:
        return dft_basis(g2.n)
    return graph_basis(g2, convention) if lam == 0.0 else None


def all_unitary(first: SpectralBasis, seconds) -> bool:
    """Whether every transform with factor-1 basis ``first`` and a second
    factor from ``seconds`` (bases, None for a dense blend) is unitary: every
    basis has ``SpectralBasis.unitary_powers``. The Wiener search then
    solves diagonal normal equations and the descent takes its loss in the
    transform domain, both by Parseval."""
    return first.unitary_powers and all(b is not None and b.unitary_powers for b in seconds)


def all_real(first: SpectralBasis, seconds) -> bool:
    """Whether every such transform is a real matrix at every pair of
    orders: every basis has ``SpectralBasis.real_powers``. A unitary descent
    on real samples then runs in real arithmetic."""
    return first.real_powers and all(b is not None and b.real_powers for b in seconds)


def blend_parts(g2_path: Graph, beta: np.ndarray, lam: np.ndarray,
                convention: str = "transform-power", inverse: bool = True) -> np.ndarray:
    """Dense matrix, inverse, derivative and inverse derivative, (4, k, T, T),
    of the temporal blends lam dfrft(T, beta) + (1 - lam) gfrft(g2_path, beta)
    at k orders and weights (1-D arrays), T = g2_path.n; with
    ``inverse=False`` only the matrix and its derivative, (2, k, T, T). The
    endpoints are the exact spectral powers; in between the inverse is
    direct, and a numerically singular blend raises SingularBlend."""
    if not np.all((lam >= 0.0) & (lam <= 1.0)):
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    T = g2_path.n
    out = np.empty((4 if inverse else 2, len(beta), T, T), dtype=np.complex128)
    for value in (1.0, 0.0):
        at = lam == value
        if at.any():
            out[:, at] = dense_powers(blend_basis(g2_path, value, convention), beta[at], inverse)
    mid = (lam > 0.0) & (lam < 1.0)
    if mid.any():
        fd, fg = (dense_powers(blend_basis(g2_path, value, convention), beta[mid], inverse=False)
                  for value in (1.0, 0.0))
        w = lam[mid, None, None]
        B, dB = w * fd + (1.0 - w) * fg
        if inverse:
            B_inv, cond = guarded_inverse(B)
            bad = ~(cond <= CONDITION_LIMIT)
            if bad.any():
                raise SingularBlend(f"blend at lambda={lam[mid][bad]}, beta={beta[mid][bad]} is numerically singular")
            out[:, mid] = B, B_inv, dB, -B_inv @ dB @ B_inv
        else:
            out[:, mid] = B, dB
    return out


class Method(NamedTuple):
    """A transform family: gfrft(g1, a1) times the second factor
    w dfrft(g2.n, a2) + (1 - w) gfrft(g2, a2) of :func:`blend_parts`. Its
    ``weight`` w is 0 for a graph power, 1 for a DFT power, and None for a
    blend whose weight lam is searched (g2 is then a temporal path). A
    ``tied`` family has one shared order, a2 = a1."""

    kind: str
    weight: float | None
    tied: bool = False

    @property
    def searches_lambda(self) -> bool:
        return self.weight is None

    def build(self, g1: Graph, g2: Graph, a1: float, a2: float, lam=None,
              convention: str = "transform-power") -> ProductTransform:
        """The transform at orders (a1, a2), or (a1, a1) for a tied family,
        and at blend weight ``lam`` for one that searches it. The second
        factor is a spectral power at either endpoint and dense in between."""
        a1, a2 = float(a1), float(a1 if self.tied else a2)
        lam = float(lam) if self.searches_lambda else None
        op1 = gfrft(g1, a1, convention)
        w = self.weight if lam is None else lam
        b2 = blend_basis(g2, w, convention)
        if b2 is not None:
            op2 = fractional_power(b2, a2)
        else:
            op2 = DenseOperator(a2, *blend_parts(g2, np.array([a2]), np.array([w]), convention)[:, 0])
        return ProductTransform(op1, op2, self.kind, (a1, a2), lam)


METHOD_TABLE = {
    "2d-gfrft": Method("gfrft2d", 0.0, tied=True),
    "2d-gbfrft": Method("gbfrft2d", 0.0),
    # a1 is the vertex-side order, a2 the time-side one
    "jfrft": Method("jfrft", 1.0),
    "hybrid": Method("hybrid", None),
}
METHODS = tuple(METHOD_TABLE)  # what the deblur and time-vertex drivers fit


def transform_2d(g1: Graph, g2: Graph, alpha1: float, alpha2: float,
                 convention: str = "transform-power") -> ProductTransform:
    """Bi-fractional transform on a two-factor product with independent orders."""
    return METHOD_TABLE["2d-gbfrft"].build(g1, g2, alpha1, alpha2, convention=convention)


def gfrft2d(g1: Graph, g2: Graph, alpha: float, convention: str = "transform-power") -> ProductTransform:
    """Equal-order special case of :func:`transform_2d`."""
    return METHOD_TABLE["2d-gfrft"].build(g1, g2, alpha, alpha, convention=convention)


def jfrft(g: Graph, T: int, alpha: float, beta: float, convention: str = "transform-power") -> ProductTransform:
    """Joint transform: graph order ``beta`` on the vertex axis (rows),
    time order ``alpha`` on the time axis (columns)."""
    return METHOD_TABLE["jfrft"].build(g, path_graph(T), beta, alpha, convention=convention)


def hybrid_transform(g1: Graph, g2_path: Graph, T: int, alpha: float, beta: float, lam: float,
                     convention: str = "transform-power") -> ProductTransform:
    """Spatial fractional operator times a temporal blend.

    The temporal factor is lam * dfrft(T, beta) + (1 - lam) * gfrft(g2_path,
    beta); its inverse comes from direct inversion (:func:`blend_parts`).
    The endpoints reuse the exact spectral operators, so lam=1 reproduces
    the joint transform and lam=0 the bi-factorized one.
    """
    if g2_path.n != T:
        raise ShapeMismatch(f"temporal factor graph has {g2_path.n} vertices, need {T}")
    return METHOD_TABLE["hybrid"].build(g1, g2_path, alpha, beta, lam, convention)


def path_graph(T: int) -> Graph:
    """Unweighted undirected path on T vertices (temporal factor helper)."""
    return make_named_graph("path", T)
