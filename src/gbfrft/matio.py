"""File formats: matrix CSV, graph CSV with metadata sidecar, and PGM.

Floating-point values are written with 17 significant digits so text
round-trips reproduce float64 exactly. Complex entries use the ``a+bi``
form.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import NonFinite, ParseError, RaggedRows, ShapeMismatch
from .graphs import Graph


def fmt(x) -> str:
    """Decimal text that round-trips float64 / complex128 exactly."""
    if isinstance(x, (complex, np.complexfloating)):
        return f"{x.real:.17g}{x.imag:+.17g}i"
    if isinstance(x, (float, np.floating)):
        return f"{x:.17g}"
    return str(x)


def _parse_token(tok: str, path: str, lineno: int):
    t = tok.strip()
    if not t:
        raise ParseError(f"{path}:{lineno}: empty value")
    low = t.lower()
    if "inf" in low or "nan" in low:
        raise NonFinite(f"{path}:{lineno}: non-finite value {tok!r}")
    try:
        val = complex(t.replace("i", "j").replace("I", "j"))
    except ValueError as e:
        raise ParseError(f"{path}:{lineno}: cannot parse {tok!r}") from e
    if not (np.isfinite(val.real) and np.isfinite(val.imag)):
        raise NonFinite(f"{path}:{lineno}: non-finite value {tok!r}")
    return val


def write_matrix(path: str, M) -> None:
    """One CSV row per matrix row; complex dtypes use a+bi tokens."""
    M = np.atleast_2d(np.asarray(M))
    if not np.all(np.isfinite(M)):
        raise NonFinite("matrix entries must be finite")
    if np.iscomplexobj(M):
        rows = (",".join(fmt(complex(v)) for v in row) for row in M)
    else:
        rows = (",".join(fmt(float(v)) for v in row) for row in M)
    with open(path, "w") as f:
        for r in rows:
            f.write(r + "\n")


def read_matrix(path: str, complex_: bool = False) -> np.ndarray:
    """Parse a matrix CSV; rows must all have the same length."""
    data = []
    width = None
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            vals = [_parse_token(tok, path, lineno) for tok in line.split(",")]
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise RaggedRows(f"{path}:{lineno}: row has {len(vals)} values, expected {width}")
            data.append(vals)
    if not data:
        raise ParseError(f"{path}: no data rows")
    M = np.asarray(data, dtype=np.complex128)
    if complex_:
        return M
    if np.any(M.imag != 0.0):
        raise ParseError(f"{path}: complex values in a real-matrix context")
    return M.real.copy()


def write_vector(path: str, v) -> None:
    write_matrix(path, np.asarray(v).reshape(1, -1))


def read_vector(path: str, complex_: bool = False) -> np.ndarray:
    return read_matrix(path, complex_=complex_).ravel()


def read_key_values(path: str, known) -> dict[str, str]:
    """The ``key=value`` lines of a file, skipping blanks and ``#`` comments;
    an unknown or repeated key is a ParseError that names the line."""
    out = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            if "=" not in s:
                raise ParseError(f"{path}:{lineno}: expected key=value")
            k, v = (p.strip() for p in s.split("=", 1))
            if k not in known:
                raise ParseError(f"{path}:{lineno}: unknown key {k!r}")
            if k in out:
                raise ParseError(f"{path}:{lineno}: duplicate key {k!r}")
            out[k] = v
    return out


# the keys of a graph's metadata sidecar, as save_graph writes them
_META_KEYS = ("n", "directed", "weighted", "label", "seed")


def _meta_path(csv_path: str) -> str:
    stem, _ = os.path.splitext(csv_path)
    return stem + ".meta"


def save_graph(g: Graph, path: str) -> None:
    """Adjacency CSV plus a key=value metadata sidecar (same stem, .meta)."""
    write_matrix(path, g.adjacency)
    with open(_meta_path(path), "w") as f:
        f.write(f"n={g.n}\n")
        f.write(f"directed={str(g.directed).lower()}\n")
        f.write(f"weighted={str(g.weighted).lower()}\n")
        f.write(f"label={g.label}\n")
        if g.seed is not None:
            f.write(f"seed={g.seed}\n")


def load_graph(path: str) -> Graph:
    """Read a graph CSV; flags come from the sidecar or are inferred. The
    sidecar's flags are ``true`` or ``false``, and its ``n`` the adjacency's size."""
    adj = read_matrix(path)
    meta_file = _meta_path(path)
    meta = read_key_values(meta_file, _META_KEYS) if os.path.exists(meta_file) else {}
    if int(meta.get("n", adj.shape[0])) != adj.shape[0]:
        raise ShapeMismatch(f"{meta_file}: n={meta['n']} but {path} has {adj.shape[0]} rows")

    def flag(key: str, inferred: bool) -> bool:
        value = meta.get(key, str(inferred).lower())
        if value not in ("true", "false"):
            raise ParseError(f"{meta_file}: {key} must be true or false, got {value!r}")
        return value == "true"

    nz = adj[adj != 0.0]
    return Graph(n=adj.shape[0], adjacency=adj,
                 directed=flag("directed", not np.array_equal(adj, adj.T)),
                 weighted=flag("weighted", bool(nz.size) and not np.all(nz == 1.0)),
                 label=meta.get("label", ""), seed=int(meta["seed"]) if "seed" in meta else None)


def read_pgm(path: str) -> np.ndarray:
    """P2 (ascii) or P5 (binary) grayscale image as float64 in [0, maxval]."""
    with open(path, "rb") as f:
        raw = f.read()

    def tokens():
        i = 0
        while i < len(raw):
            if raw[i:i + 1] == b"#":
                while i < len(raw) and raw[i:i + 1] != b"\n":
                    i += 1
            elif raw[i:i + 1].isspace():
                i += 1
            else:
                j = i
                while j < len(raw) and not raw[j:j + 1].isspace() and raw[j:j + 1] != b"#":
                    j += 1
                yield i, raw[i:j]
                i = j

    it = tokens()
    try:
        _, magic = next(it)
        if magic not in (b"P2", b"P5"):
            raise ParseError(f"{path}: not a PGM file (magic {magic!r})")
        _, w = next(it)
        _, h = next(it)
        pos, maxval = next(it)
        w, h, maxval = int(w), int(h), int(maxval)
    except (StopIteration, ValueError) as e:
        raise ParseError(f"{path}: truncated or malformed PGM header") from e
    if w < 1 or h < 1:
        raise ParseError(f"{path}: bad size {w}x{h}")
    if maxval <= 0 or maxval > 65535:
        raise ParseError(f"{path}: bad maxval {maxval}")
    if magic == b"P2":
        vals = []
        for _, tok in it:
            try:
                vals.append(int(tok))
            except ValueError as e:
                raise ParseError(f"{path}: bad pixel token {tok!r}") from e
        if len(vals) != w * h:
            raise ParseError(f"{path}: expected {w * h} pixels, found {len(vals)}")
        img = np.asarray(vals, dtype=np.float64)
    else:
        start = pos + len(str(maxval)) + 1  # single whitespace after maxval
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        count = w * h
        if len(raw) - start < count * dtype.itemsize:
            raise ParseError(f"{path}: truncated pixel data")
        img = np.frombuffer(raw, dtype=dtype, count=count, offset=start).astype(np.float64)
    if img.max(initial=0) > maxval:
        raise ParseError(f"{path}: pixel value exceeds maxval")
    return img.reshape(h, w)


def write_pgm(path: str, img, binary: bool = True, maxval: int = 255) -> None:
    """Write a grayscale image, rounding and clipping to [0, maxval]."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ParseError("image must be 2D")
    pix = np.clip(np.rint(img), 0, maxval).astype(np.uint16 if maxval > 255 else np.uint8)
    h, w = pix.shape
    if binary:
        if maxval > 255:
            raise ParseError("binary PGM output supports maxval <= 255 only")
        with open(path, "wb") as f:
            f.write(f"P5\n{w} {h}\n{maxval}\n".encode())
            f.write(pix.tobytes())
    else:
        with open(path, "w") as f:
            f.write(f"P2\n{w} {h}\n{maxval}\n")
            for row in pix:
                f.write(" ".join(str(int(v)) for v in row) + "\n")
