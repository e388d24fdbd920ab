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
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from .errors import NonFinite, ShapeMismatch, SingularBlend
from .graphs import Graph, make_named_graph
from .spectral import (
    CONDITION_LIMIT,
    FactorOperator,
    FractionalOperator,
    SpectralBasis,
    eig_general,
    fractional_power,
)

CONVENTIONS = ("transform-power", "shift-power")

_GRAPH_BASES: "WeakKeyDictionary[Graph, dict[str, SpectralBasis]]" = WeakKeyDictionary()
_DFT_BASES: dict[int, SpectralBasis] = {}


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
    """Spectral basis backing the graph-side fractional operator (cached per graph)."""
    _check_convention(convention)
    per_graph = _GRAPH_BASES.setdefault(g, {})
    basis = per_graph.get(convention)
    if basis is None:
        if convention == "shift-power":
            basis = eig_general(g.adjacency)
        else:
            adj_basis = per_graph.get("shift-power")
            if adj_basis is None:
                adj_basis = eig_general(g.adjacency)
                per_graph["shift-power"] = adj_basis
            basis = eig_general(adj_basis.V_inv)  # F_G = V_A^{-1}
        per_graph[convention] = basis
    return basis


def gfrft(g: Graph, alpha: float, convention: str = "transform-power") -> FractionalOperator:
    """Graph fractional Fourier operator of order ``alpha``."""
    return fractional_power(graph_basis(g, convention), alpha)


def dfrft(T: int, alpha: float) -> FractionalOperator:
    """Discrete fractional Fourier operator on a length-T time axis.

    Fractionalizes the unitary DFT matrix through its eigendecomposition,
    so the operator is unitary for every order and order 1 is the DFT.
    """
    basis = _DFT_BASES.get(T)
    if basis is None:
        basis = eig_general(dft_matrix(T))
        _DFT_BASES[T] = basis
    return fractional_power(basis, alpha)


@dataclass(eq=False)
class BlendedOperator(FactorOperator):
    """Convex blend of two equal-size factor operators, inverted directly."""

    order: float
    matrix: np.ndarray
    inverse: np.ndarray
    derivative: np.ndarray
    inverse_derivative: np.ndarray

    _PARTS = {"fwd": "matrix", "inv": "inverse", "dfwd": "derivative", "dinv": "inverse_derivative"}

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def _apply(self, M, X, adjoint):
        return (M.conj().T if adjoint else M) @ X


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


def transform_2d(
    g1: Graph,
    g2: Graph,
    alpha1: float,
    alpha2: float,
    convention: str = "transform-power",
) -> ProductTransform:
    """Bi-fractional transform on a two-factor product with independent orders."""
    return ProductTransform(
        op1=gfrft(g1, alpha1, convention),
        op2=gfrft(g2, alpha2, convention),
        kind="gbfrft2d",
        orders=(float(alpha1), float(alpha2)),
    )


def gfrft2d(g1: Graph, g2: Graph, alpha: float, convention: str = "transform-power") -> ProductTransform:
    """Equal-order special case of :func:`transform_2d`."""
    t = transform_2d(g1, g2, alpha, alpha, convention)
    return ProductTransform(op1=t.op1, op2=t.op2, kind="gfrft2d", orders=t.orders)


def jfrft(g: Graph, T: int, alpha: float, beta: float, convention: str = "transform-power") -> ProductTransform:
    """Joint transform: graph order ``beta`` on the vertex axis (rows),
    time order ``alpha`` on the time axis (columns)."""
    return ProductTransform(
        op1=gfrft(g, beta, convention),
        op2=dfrft(T, alpha),
        kind="jfrft",
        orders=(float(beta), float(alpha)),
    )


def hybrid_transform(
    g1: Graph,
    g2_path: Graph,
    T: int,
    alpha: float,
    beta: float,
    lam: float,
    convention: str = "transform-power",
) -> ProductTransform:
    """Spatial fractional operator times a temporal blend.

    The temporal factor is lam * dfrft(T, beta) + (1 - lam) * gfrft(g2_path,
    beta); its inverse comes from direct inversion. The endpoints reuse the
    exact spectral operators, so lam=1 reproduces the joint transform and
    lam=0 the bi-factorized one.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if not np.isfinite([alpha, beta]).all():
        raise NonFinite("orders must be finite")
    if g2_path.n != T:
        raise ShapeMismatch(f"temporal factor graph has {g2_path.n} vertices, need {T}")
    op1 = gfrft(g1, alpha, convention)
    if lam == 1.0:
        op2 = dfrft(T, beta)
    elif lam == 0.0:
        op2 = gfrft(g2_path, beta, convention)
    else:
        fd = dfrft(T, beta)
        fg = gfrft(g2_path, beta, convention)
        B = lam * fd.matrix + (1.0 - lam) * fg.matrix
        if np.linalg.cond(B) > CONDITION_LIMIT:
            raise SingularBlend(f"blend at lambda={lam}, beta={beta} is numerically singular")
        B_inv = np.linalg.inv(B)
        dB = lam * fd.derivative + (1.0 - lam) * fg.derivative
        op2 = BlendedOperator(
            order=float(beta),
            matrix=B,
            inverse=B_inv,
            derivative=dB,
            inverse_derivative=-B_inv @ dB @ B_inv,
        )
    return ProductTransform(op1=op1, op2=op2, kind="hybrid",
                            orders=(float(alpha), float(beta)), lam=float(lam))


def path_graph(T: int) -> Graph:
    """Unweighted undirected path on T vertices (temporal factor helper)."""
    return make_named_graph("path", T)
