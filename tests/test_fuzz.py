"""Property tests of the file parsers: hostile input either parses or
raises `DataError`, and never raises anything else.

Hypothesis runs derandomized with a fixed example count and no example
database, so every run draws the same cases.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from capsroute.data import DataError, load_checkpoint  # noqa: E402

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
