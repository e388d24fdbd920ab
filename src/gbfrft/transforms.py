"""Fractional Fourier transforms on graphs, time axes, and their products.

A product transform holds a fractional power M1 of the first factor, kept
on its spectral basis, and the dense matrix, inverse and order derivative
of the second factor M2, and acts on N1 x N2 signal matrices as

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
Its second factor is what the descent fits: the dense parts of
:func:`blend_plan` at the family's weight, the endpoints included, so a
transform applies the numbers the descent fitted.
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
    basis as built."""
    parts = [content, *vars(basis).values(), *(basis.mix or ())]
    return sum(a.nbytes for a in parts if isinstance(a, np.ndarray))


class _BasisCache:
    """Spectral bases keyed by what they depend on, least recently used
    first. A key names the matrix (for a graph: convention, shape and
    content digest); ``content`` is that matrix, compared exactly on every
    hit, so a digest collision costs a decomposition and never returns the
    wrong basis. An entry's bytes are counted once, when it is built: a
    basis later caches only vectors of its n eigenvalues."""

    def __init__(self):
        self.entries: OrderedDict[tuple, tuple[np.ndarray | None, SpectralBasis, int]] = OrderedDict()
        self.nbytes = self.hits = self.misses = 0

    def get(self, key: tuple, content: np.ndarray | None, build) -> SpectralBasis:
        entry = self.entries.get(key)
        if entry is not None and (entry[0] is content or np.array_equal(entry[0], content)):
            self.hits += 1
            self.entries.move_to_end(key)
            if entry[0] is not content:   # keep the caller's own array: its next calls pass the identity test
                self.entries[key] = (content, *entry[1:])
            return entry[1]
        self.misses += 1
        if entry is not None:   # a digest collision: the new matrix takes the key
            self.nbytes -= self.entries.pop(key)[2]
        basis = build()
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

    Under ``transform-power`` the adjacency's basis is dropped before F_G =
    V_A^{-1} is solved, and F_G goes to :func:`eig_general` as float64 when
    V_inv is real (an undirected graph), so a cold build holds at most one
    of the two bases at a time. Cached by content: graphs with equal
    adjacencies share one basis per convention, and it outlives the graph
    that first asked for it (see :func:`basis_cache_stats`)."""
    _check_convention(convention)

    def build():
        basis = eig_general(g.adjacency)
        if convention == "shift-power":
            return basis
        F = basis.V_inv   # F_G = V_A^{-1}, solved once the adjacency's basis is gone
        del basis
        if not np.any(F.imag):
            F = F.real.copy()
        return eig_general(F)

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
class DenseOperator:
    """A second factor at one order, held as the three dense parts that
    :func:`blend_plan` gives the descent at its blend weight."""

    order: float
    matrix: np.ndarray
    inverse: np.ndarray
    derivative: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _inverse(direction: str) -> bool:
    """Whether ``direction`` asks for the inverse transform."""
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return direction == "inverse"


@dataclass(eq=False)
class ProductTransform:
    """Separable two-factor transform with independent fractional orders: a
    fractional power ``op1`` on the rows, a dense ``op2`` on the columns."""

    op1: FractionalOperator
    op2: DenseOperator
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
        if _inverse(direction):
            return np.kron(self.op2.inverse, self.op1.inverse)
        return np.kron(self.op2.matrix, self.op1.matrix)


def apply(t: ProductTransform, X, direction: str = "forward") -> np.ndarray:
    """Apply the product transform to an N1 x N2 signal matrix."""
    X = np.asarray(X)
    if X.shape != (t.n1, t.n2):
        raise ShapeMismatch(f"signal must be {t.n1}x{t.n2}, got {X.shape}")
    inverse = _inverse(direction)
    return t.op1.lmul(X, inverse) @ (t.op2.inverse if inverse else t.op2.matrix).T


def blend_basis(g2: Graph, lam: float, convention: str = "transform-power") -> SpectralBasis | None:
    """The spectral basis of the second factor at blend weight ``lam``: the
    DFT on g2.n points at lam = 1, the graph basis of g2 at lam = 0, and None
    in between, where the blend is a dense matrix with no eigenbasis here."""
    if lam == 1.0:
        return dft_basis(g2.n)
    return graph_basis(g2, convention) if lam == 0.0 else None


def blend_plan(g2_path: Graph, lam: np.ndarray, convention: str = "transform-power"):
    """Dense matrix, inverse and derivative, (3, k, T, T), of the temporal
    blends lam dfrft(T, beta) + (1 - lam) gfrft(g2_path, beta) at k weights,
    T = g2_path.n, as a function of the k orders (1-D arrays). The endpoints
    are the exact spectral powers (:func:`~gbfrft.spectral.dense_powers`); in
    between the inverse is direct, and a numerically singular blend raises
    SingularBlend. The endpoints' positions, bases and dtype are resolved
    once, here, with a buffer for each endpoint's parts (the returned one
    where a single endpoint covers every weight); every call overwrites
    these buffers and returns the same one."""
    if not np.all((lam >= 0.0) & (lam <= 1.0)):
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    T = g2_path.n
    mid = np.flatnonzero((lam > 0.0) & (lam < 1.0))
    # the endpoint bases in use: the parts are real where each has real powers (never the DFT)
    ends = [(np.flatnonzero(lam == v), blend_basis(g2_path, v, convention))
            for v in (1.0, 0.0) if (lam == v).any() or mid.size]
    out = np.empty((3, len(lam), T, T), dtype=np.result_type(np.float64, *(b.dtype for _, b in ends)))
    # each endpoint's parts at its own orders, then the blends'
    bufs = [out if len(at) == len(lam) else np.empty((3, len(at) + len(mid), T, T), b.dtype) for at, b in ends]
    w = lam[mid, None, None]
    if mid.size:   # the blends B and dB, and scratch for the graph power's term
        blend = np.empty((2, len(mid), T, T), out.dtype)
        term = np.empty(blend.shape, bufs[1].dtype)

    def parts(beta: np.ndarray) -> np.ndarray:
        blends = []   # one dense_powers call per endpoint basis
        for (at, basis), buf in zip(ends, bufs):
            powers = dense_powers(basis, np.concatenate([beta[at], beta[mid]]), buf)
            if buf is not out:
                out[:, at] = powers[:, :len(at)]
            blends.append(powers[::2, len(at):])
        if mid.size:
            fd, fg = blends
            np.add(np.multiply(w, fd, out=blend), np.multiply(1.0 - w, fg, out=term), out=blend)
            B_inv, cond = guarded_inverse(blend[0])
            bad = ~(cond <= CONDITION_LIMIT)
            if bad.any():
                raise SingularBlend(f"blend at lambda={lam[mid][bad]}, beta={beta[mid][bad]} is numerically singular")
            out[::2, mid] = blend
            out[1, mid] = B_inv
        return out

    return parts


class Method(NamedTuple):
    """A transform family: gfrft(g1, a1) times the second factor
    w dfrft(g2.n, a2) + (1 - w) gfrft(g2, a2), held as the dense parts that
    :func:`blend_plan` gives the descent, at every weight. Its
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
        factor is :func:`blend_plan`'s dense parts, the endpoints included."""
        a1, a2 = float(a1), float(a1 if self.tied else a2)
        lam = float(lam) if self.searches_lambda else None
        op1 = gfrft(g1, a1, convention)
        w = self.weight if lam is None else lam
        basis = blend_basis(g2, w, convention)
        if basis is None:   # a blend, or a weight that blend_plan rejects
            parts = blend_plan(g2, np.array([w]), convention)(np.array([a2]))
        else:               # an endpoint: the call blend_plan makes there
            parts = dense_powers(basis, np.array([a2]))
        op2 = DenseOperator(a2, *parts[:, 0])
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
    beta); its inverse comes from direct inversion (:func:`blend_plan`).
    The endpoints are the exact spectral powers, so lam=1 reproduces the
    joint transform and lam=0 the bi-factorized one.
    """
    if g2_path.n != T:
        raise ShapeMismatch(f"temporal factor graph has {g2_path.n} vertices, need {T}")
    return METHOD_TABLE["hybrid"].build(g1, g2_path, alpha, beta, lam, convention)


def path_graph(T: int) -> Graph:
    """Unweighted undirected path on T vertices (temporal factor helper)."""
    return make_named_graph("path", T)
