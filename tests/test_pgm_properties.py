"""Properties of the binary PGM reader and writer.

- A P5 header whose tokens are separated by any run of whitespace and
  ``#`` comments reads back the drawn size and raster. Comments may hold
  ``#``, digits and ``P5``; the raster may begin with ``#`` or whitespace,
  since it starts one byte after the maxval token. A ``#`` inside a token
  belongs to the token, so it makes the token invalid instead of starting
  a comment.
- ``write_pgm`` followed by ``read_pgm`` gives back any uint8 array.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sparseimg import read_pgm, write_pgm  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
# comment text: any bytes but the line ends, which close the comment
COMMENT = st.builds(
    lambda text, end: b"#" + text + end,
    st.binary(max_size=12).map(lambda b: b.replace(b"\n", b"#").replace(b"\r", b"5")),
    st.sampled_from([b"\n", b"\r"]),
)


@st.composite
def separators(draw):
    """A run of whitespace and comments that starts and ends in whitespace."""
    parts = draw(st.lists(st.one_of(WHITESPACE, COMMENT), max_size=4))
    return draw(WHITESPACE) + b"".join(parts) + draw(WHITESPACE)


def read_back(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.pgm"
        path.write_bytes(data)
        return read_pgm(path)


@SETTINGS
@given(
    width=st.integers(1, 9),
    height=st.integers(1, 9),
    gaps=st.lists(separators(), min_size=3, max_size=3),
    lead=st.sampled_from([b"", b"#P2 9 9\n"]),
    end=WHITESPACE,
    data=st.data(),
)
def test_header_with_whitespace_and_comments(width, height, gaps, lead, end, data):
    raster = data.draw(st.binary(min_size=width * height, max_size=width * height))

    def header(height_token: bytes) -> bytes:
        return lead + b"P5" + gaps[0] + b"%d" % width + gaps[1] + height_token + gaps[2] + b"255" + end

    img = read_back(header(b"%d" % height) + raster)
    assert (img.width, img.height) == (width, height)
    assert img.pixels.tobytes() == raster
    with pytest.raises(ValueError, match="invalid literal"):
        read_back(header(b"%d#%d" % (height, height)) + raster)


@SETTINGS
@given(
    st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
        lambda shape: st.binary(min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]).map(
            lambda raw: np.frombuffer(raw, np.uint8).reshape(shape)
        )
    )
)
def test_write_then_read_gives_back_any_uint8_array(pixels):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.pgm"
        write_pgm(path, pixels)
        np.testing.assert_array_equal(read_pgm(path).pixels, pixels)
