"""Property tests of the file parsers: hostile input either parses or
raises `DataError`, and never raises anything else; a checkpoint, a
manifest or a PGM image either round-trips or is refused with `DataError`
before anything is written.

Hypothesis runs derandomized with a fixed example count and no example
database, so every run draws the same cases.
"""

import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from capsroute.cli import CONFIG_REGISTRY, RunConfig  # noqa: E402
from capsroute.data import (  # noqa: E402
    Checkpoint, DataError, ManifestEntry, load_checkpoint, load_manifest, load_pgm, save_checkpoint, write_manifest,
    write_pgm,
)

# small values make consistent directories (and so real loads) common;
# the edges and large values probe int64 overflow and numpy's shape limits
_COUNT = st.one_of(
    st.integers(0, 40),
    st.sampled_from([2**31, 2**32, 2**62, 2**63 - 1, 2**63]),
    st.integers(0, 2**63),
)
_ITEMSIZE = {"f32": 4, "f64": 8}


@settings(
    derandomize=True,
    max_examples=400,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # each example rewrites the one file
)
@given(
    tag=st.sampled_from(["f32", "f64"]),
    shape=st.lists(_COUNT, max_size=4),
    offset=_COUNT,
    nbytes=st.one_of(_COUNT, st.none()),
    total=st.integers(0, 40),
)
def test_checkpoint_tensor_line_loads_or_raises_data_error(tmp_path, tag, shape, offset, nbytes, total):
    if nbytes is None:  # the byte count a wrapping 64-bit product of the extents gives
        nbytes = math.prod(shape) * _ITEMSIZE[tag] % 2**64
    dims = "x".join(str(d) for d in shape) or "scalar"
    p = tmp_path / "c.ckpt"
    p.write_bytes(f"CAPS 1\ntensor a {tag} {dims} {offset} {nbytes}\ndata {total}\n".encode() + bytes(total))
    try:
        ckpt = load_checkpoint(p)
    except DataError:
        return
    arr = ckpt.tensors["a"]
    assert arr.shape == tuple(shape) and arr.nbytes == nbytes and offset + nbytes <= total


# Any byte string given to a text parser either parses or raises DataError.
# Each strategy mixes raw bytes with bytes built from the format's own
# pieces, so that examples get past the first check as well.
_FUZZ = settings(
    derandomize=True,
    max_examples=300,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # each example rewrites the one file
)


def _joined(piece, sep):
    return st.lists(piece, max_size=6).map(sep.join)


_NUMBER = st.sampled_from(
    [b"0", b"1", b"2", b"3", b"64", b"-1", b"+4", b"007", b"1_0", b"1e3", b"nan", b"inf", b"9" * 5000, b"\xd9\xa3", b""]
)


@st.composite
def _pgm_from_pieces(draw):
    w, h = (draw(st.one_of(st.integers(1, 4).map(lambda n: str(n).encode()), _NUMBER)) for _ in range(2))
    sep = draw(st.sampled_from([b" ", b"\n", b"\t", b"\n# note\n", b"", b"\x0b"]))
    magic, maxval = draw(st.sampled_from([b"P5"] * 3 + [b"P2", b""])), draw(st.sampled_from([b"255"] * 3 + [b"256", b""]))
    n = int(w) * int(h) if w.isdigit() and h.isdigit() and len(w + h) < 6 else 0
    n = max(0, n + draw(st.sampled_from([0, 0, 0, -1, 1])))
    return sep.join([magic, w, h, maxval]) + b"\n" + draw(st.binary(min_size=n, max_size=n))


_PGM = st.one_of(st.binary(max_size=64), _pgm_from_pieces())
_MANIFEST_CELL = st.one_of(_NUMBER, _joined(_NUMBER, b";"), _joined(_joined(_NUMBER, b":"), b";"), st.binary(max_size=8))
_MANIFEST = st.one_of(
    st.binary(max_size=200),
    st.tuples(
        st.sampled_from([b"path,labels,boxes", b"path,labels", b""]),
        st.lists(_joined(_MANIFEST_CELL, b","), max_size=5),
        st.sampled_from([b"\n", b"\r\n", b"\x85", b"\xe2\x80\xa8"]),
    ).map(lambda t: t[2].join([t[0], *t[1]])),
)
_CONFIG_LINE = st.tuples(
    st.sampled_from(sorted(CONFIG_REGISTRY) + ["", "unknown", " dtype "]),
    st.sampled_from([b"=", b" = ", b"==", b""]),
    st.one_of(_NUMBER, st.sampled_from([b"f32", b"last", b"true", b"0.5", b"1e400", b"-0.0"]), st.binary(max_size=8)),
    st.sampled_from([b"", b" # comment", b"#"]),
).map(lambda t: t[0].encode() + t[1] + t[2] + t[3])
_CONFIG = st.one_of(st.binary(max_size=200), _joined(_CONFIG_LINE, b"\n"))


@_FUZZ
@given(raw=_PGM)
def test_pgm_bytes_parse_or_raise_data_error(tmp_path, raw):
    p = tmp_path / "x.pgm"
    p.write_bytes(raw)
    try:
        img = load_pgm(p)
    except DataError:
        return
    assert img.ndim == 2 and img.size >= 1 and 0.0 <= img.min() and img.max() <= 1.0


@_FUZZ
@given(raw=_MANIFEST)
def test_manifest_bytes_parse_or_raise_data_error(tmp_path, raw):
    p = tmp_path / "m.csv"
    p.write_bytes(raw)
    try:
        entries = load_manifest(p)
    except DataError:
        return
    assert all(e.path for e in entries)


@_FUZZ
@given(raw=_CONFIG)
def test_config_bytes_parse_or_raise_data_error(tmp_path, raw):
    p = tmp_path / "run.cfg"
    p.write_bytes(raw)
    try:
        cfg = RunConfig.from_file(p)
    except DataError:
        return
    assert set(cfg.values) == set(CONFIG_REGISTRY)


# a header field is mostly plain text, else text holding the format's
# separators (space, "=", line breaks) or non-ASCII; arrays include 0-d
# and empty ones, and NaN, inf and -0.0 values
_PLAIN = st.text("ab._-:{}0", max_size=6)
_HOSTILE = st.text(st.one_of(st.sampled_from("a= \t\r\n\x0b"), st.characters(max_codepoint=0x3000)), max_size=6)
_FIELD = st.one_of(_PLAIN, _PLAIN, _PLAIN, _HOSTILE)
_ARRAY = st.tuples(
    st.sampled_from([np.float32, np.float64]), hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
).flatmap(lambda t: hnp.arrays(*t))


@_FUZZ
@given(
    config=st.dictionaries(_FIELD, _FIELD, max_size=3),
    rng=st.one_of(st.none(), _FIELD),
    tensors=st.dictionaries(_FIELD, _ARRAY, max_size=3),
)
def test_checkpoint_round_trips_bitwise_or_save_raises_data_error(tmp_path, config, rng, tensors):
    p = tmp_path / "c.ckpt"
    p.unlink(missing_ok=True)
    try:
        save_checkpoint(p, Checkpoint(config=config, tensors=tensors, rng_state=rng))
    except DataError:
        assert not any(tmp_path.iterdir())  # refused before anything is written
        return
    back = load_checkpoint(p)
    assert back.config == config and back.rng_state == rng and list(back.tensors) == list(tensors)
    for name, arr in tensors.items():
        got = back.tensors[name]
        assert got.dtype == arr.dtype and got.shape == arr.shape and got.tobytes() == arr.tobytes()


# manifest fields: mostly valid paths and indices, else paths with
# separators or line breaks and values whose text would read back as
# something else (bool, float, negative, numpy or huge integers)
_HOSTILE_INDEX = st.sampled_from(
    [True, False, -1, 1.0, np.int64(4), np.uint8(7), np.bool_(True), 2**63 - 1, 2**63, 10**5000]
)
_INDEX, _SIDE = (
    st.tuples(st.integers(0, 15), st.integers(lo, 300), _HOSTILE_INDEX).map(lambda t: t[2] if t[0] == 15 else t[1])
    for lo in (0, 1)
)
_ENTRY = st.builds(
    ManifestEntry,
    path=st.one_of(st.text("ab._-:{}0", min_size=1, max_size=6), _FIELD),
    labels=st.lists(_INDEX, max_size=3).map(tuple),
    boxes=st.lists(
        st.one_of(st.tuples(_INDEX, _INDEX, _INDEX, _SIDE, _SIDE), st.lists(_INDEX, min_size=4, max_size=6).map(tuple)),
        max_size=2,
    ).map(tuple),
)


@_FUZZ
@given(entries=st.lists(_ENTRY, max_size=3))
def test_manifest_round_trips_or_write_raises_data_error(tmp_path, entries):
    p = tmp_path / "m.csv"
    p.unlink(missing_ok=True)
    try:
        write_manifest(entries, p)
    except DataError:
        assert not p.exists()  # refused before anything is written
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # repeated paths warn
        back = load_manifest(p)
    assert back == entries
    assert all(type(v) is int for e in back for v in (*e.labels, *(c for box in e.boxes for c in box)))


# images: mostly 2D and quantized to 8 bits, else of any values (NaN and
# infinities included), dimension count or emptiness
_QUANTIZED = hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=4)).map(lambda q: q / 255.0)
_ANY_IMAGE = st.sampled_from([np.float32, np.float64]).flatmap(
    lambda dt: hnp.arrays(dt, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4), elements=st.floats(width=32))
)


@_FUZZ
@given(image=st.one_of(_QUANTIZED, _ANY_IMAGE))
def test_pgm_round_trips_or_write_raises_data_error(tmp_path, image):
    p = tmp_path / "x.pgm"
    p.unlink(missing_ok=True)
    try:
        write_pgm(image, p)
    except DataError:
        assert not p.exists()  # refused before anything is written
        return
    back = load_pgm(p)
    assert back.shape == image.shape
    # 8 bits hold [0, 1] to half a step, and a quantized image exactly
    assert np.abs(back - np.clip(image, 0.0, 1.0)).max() <= 0.5 / 255.0 + 1e-7
    if image.dtype == np.float64 and np.array_equal(image, np.rint(image * 255.0) / 255.0) and image.max() <= 1.0:
        assert back.tobytes() == image.tobytes()
