import numpy as np
import pytest

from gbfrft import matio
from gbfrft.errors import NonFinite, ParseError, RaggedRows, ShapeMismatch
from gbfrft.graphs import make_named_graph


def test_fmt_round_trips_float64():
    assert matio.fmt(1.0 / 3.0) == "0.33333333333333331"
    assert float(matio.fmt(1.0 / 3.0)) == 1.0 / 3.0
    assert matio.fmt(complex(0.1, -0.2)) == "0.10000000000000001-0.20000000000000001i"


def test_matrix_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    p = str(tmp_path / "m.csv")
    for trial in range(5):
        M = rng.normal(size=(4, 6)) * 10.0 ** rng.integers(-8, 8)
        matio.write_matrix(p, M)
        back = matio.read_matrix(p)
        assert back.dtype == np.float64
        assert np.array_equal(back, M)


def test_complex_matrix_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    p = str(tmp_path / "c.csv")
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    matio.write_matrix(p, M)
    back = matio.read_matrix(p, complex_=True)
    assert np.array_equal(back, M)


def test_vector_round_trip(tmp_path):
    p = str(tmp_path / "v.csv")
    v = np.array([1.5, -2.25, 3.125])
    matio.write_vector(p, v)
    assert np.array_equal(matio.read_vector(p), v)


def test_read_matrix_rejects_imaginary_in_real_context(tmp_path):
    p = str(tmp_path / "c.csv")
    matio.write_matrix(p, np.array([[1 + 2j]]))
    with pytest.raises(ParseError):
        matio.read_matrix(p)


def test_ragged_rows_report_line_number(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2,3\n4,5\n")
    with pytest.raises(RaggedRows) as exc:
        matio.read_matrix(str(p))
    assert ":2:" in str(exc.value)


def test_bad_token_reports_location(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3,zap\n")
    with pytest.raises(ParseError) as exc:
        matio.read_matrix(str(p))
    assert ":2:" in str(exc.value)


def test_non_finite_values_rejected(tmp_path):
    p = tmp_path / "inf.csv"
    p.write_text("1,inf\n")
    with pytest.raises(NonFinite):
        matio.read_matrix(str(p))
    with pytest.raises(NonFinite):
        matio.write_matrix(str(tmp_path / "o.csv"), np.array([[np.nan]]))


def test_empty_file_is_an_error(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("\n\n")
    with pytest.raises(ParseError):
        matio.read_matrix(str(p))


def test_graph_round_trip_with_sidecar(tmp_path):
    p = str(tmp_path / "g.csv")
    g = make_named_graph("cycle", 5, directed=True, weighted=True, seed=9)
    matio.save_graph(g, p)
    back = matio.load_graph(p)
    assert back.n == 5
    assert back.directed and back.weighted
    assert back.label == "cycle5"
    assert back.seed == 9
    assert np.array_equal(back.adjacency, g.adjacency)


def test_graph_flags_inferred_without_sidecar(tmp_path):
    p = str(tmp_path / "g.csv")
    g = make_named_graph("path", 3, weighted=True, seed=2)
    matio.write_matrix(p, g.adjacency)  # no sidecar written
    back = matio.load_graph(p)
    assert not back.directed
    assert back.weighted
    assert back.seed is None


@pytest.mark.parametrize("sidecar, error, words", [
    ("n=7\n", ShapeMismatch, "n=7"),
    ("directed=maybe\n", ParseError, "directed"),
    ("weighted=True\n", ParseError, "weighted"),
    ("n=4\ncolor=red\n", ParseError, ":2: unknown key 'color'"),
    ("n=4\nn=4\n", ParseError, ":2: duplicate key 'n'"),
    ("# note\nn 4\n", ParseError, ":2: expected key=value"),
    ("seed=x\n", ParseError, r"g\.meta: seed must be an integer, got 'x'"),
    ("n=four\n", ParseError, r"g\.meta: n must be an integer, got 'four'"),
    ("n=4\nseed=1.5\n", ParseError, r"g\.meta: seed must be an integer"),
])
def test_graph_sidecar_is_checked(tmp_path, sidecar, error, words):
    p = tmp_path / "g.csv"
    matio.save_graph(make_named_graph("cycle", 4), str(p))
    (tmp_path / "g.meta").write_text(sidecar)
    with pytest.raises(error, match=words):
        matio.load_graph(str(p))


def test_graph_sidecar_keys_are_optional(tmp_path):
    p = tmp_path / "g.csv"
    matio.save_graph(make_named_graph("path", 4, weighted=True, seed=2), str(p))
    (tmp_path / "g.meta").write_text("# only a label\n\nlabel = a=b\n")
    back = matio.load_graph(str(p))
    assert (back.n, back.directed, back.weighted, back.label, back.seed) == (4, False, True, "a=b", None)


def test_pgm_binary_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    img = np.floor(rng.uniform(0, 256, size=(7, 11)))
    p = str(tmp_path / "a.pgm")
    matio.write_pgm(p, img)
    back = matio.read_pgm(p)
    assert back.shape == (7, 11)
    assert np.array_equal(back, img)


def test_pgm_ascii_round_trip_and_comments(tmp_path):
    img = np.arange(12, dtype=np.float64).reshape(3, 4)
    p = str(tmp_path / "a.pgm")
    matio.write_pgm(p, img, binary=False)
    text = open(p).read()
    assert text.startswith("P2")
    commented = text.replace("P2\n", "P2\n# a comment\n")
    p2 = tmp_path / "b.pgm"
    p2.write_text(commented)
    assert np.array_equal(matio.read_pgm(str(p2)), img)


def test_pgm_write_clips_and_rounds(tmp_path):
    p = str(tmp_path / "c.pgm")
    matio.write_pgm(p, np.array([[-5.0, 12.6], [300.0, 0.4]]))
    assert matio.read_pgm(p).tolist() == [[0.0, 13.0], [255.0, 0.0]]


def test_pgm_rejects_garbage(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P9\n2 2\n255\n")
    with pytest.raises(ParseError):
        matio.read_pgm(str(p))
    p.write_bytes(b"P2\n2 2\n255\n1 2 3\n")
    with pytest.raises(ParseError):
        matio.read_pgm(str(p))


@pytest.mark.parametrize("data, pixels", [
    (b"P5\n2 1\n0255\n\x07\x09", [[7.0, 9.0]]),   # maxval written with a leading zero
    (b"P5 2 1 00255 \x07\x09", [[7.0, 9.0]]),
    (b"P5\n# w h\n2 1\n# maxval\n255\n#\n", [[35.0, 10.0]]),  # raster bytes '#' and newline
])
def test_pgm_binary_raster_starts_one_byte_after_the_maxval_token(tmp_path, data, pixels):
    p = tmp_path / "r.pgm"
    p.write_bytes(data)
    assert matio.read_pgm(str(p)).tolist() == pixels


@pytest.mark.parametrize("header, pixels", [(b"P5\n4 4\n255\n", b"\x01\x02\x03"),
                                            (b"P5\n2 2\n65535\n", b"\x00\x01" * 3 + b"\x02"),
                                            (b"P5\n2 2\n255", b"")])
def test_pgm_rejects_truncated_binary_pixels(tmp_path, header, pixels):
    p = tmp_path / "short.pgm"
    p.write_bytes(header + pixels)
    with pytest.raises(ParseError, match="truncated pixel data"):
        matio.read_pgm(str(p))


@pytest.mark.parametrize("data", [b"P5\n-4 4\n255\n\x01\x02\x03", b"P2\n-2 -2\n255\n1 2 3 4\n",
                                  b"P5\n0 3\n255\n"])
def test_pgm_rejects_a_size_below_one_pixel(tmp_path, data):
    p = tmp_path / "bad.pgm"
    p.write_bytes(data)
    with pytest.raises(ParseError, match="bad size"):
        matio.read_pgm(str(p))


def test_pgm_rejects_a_negative_ascii_pixel(tmp_path):
    p = tmp_path / "neg.pgm"
    p.write_bytes(b"P2 2 1 255 -3 7")
    with pytest.raises(ParseError, match="b'-3'"):
        matio.read_pgm(str(p))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_pgm_write_rejects_a_non_finite_pixel_before_opening_the_file(tmp_path, value):
    p = tmp_path / "nan.pgm"
    with pytest.raises(NonFinite):
        matio.write_pgm(str(p), np.array([[1.0, value]]))
    assert not p.exists()


@pytest.mark.parametrize("maxval", [0, -1, 65536])
@pytest.mark.parametrize("binary", [True, False])
def test_pgm_write_rejects_a_maxval_outside_its_range_before_opening_the_file(tmp_path, maxval, binary):
    p = tmp_path / "max.pgm"
    with pytest.raises(ParseError, match="maxval"):
        matio.write_pgm(str(p), np.zeros((2, 2)), binary=binary, maxval=maxval)
    assert not p.exists()
