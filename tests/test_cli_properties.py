"""Property: for any input file, ``main`` returns 0, 1, 2 or 3, prints no
traceback, and on failure prints the one line ``sparseimg: <file>: <reason>``.

Generated containers never declare an image larger than 64x64: a 132 KB
container can declare 65535x65535 with empty blocks, and decoding that
allocates about 34 GB.
"""

import contextlib
import io
import math
import struct
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from sparseimg import Dictionary2D, DictionaryKind, assemble_dictionary, encode  # noqa: E402
from sparseimg.cli import main  # noqa: E402
from sparseimg.codec import serialize  # noqa: E402

from conftest import synthetic_image  # noqa: E402

HEADER = struct.Struct("<4sHIIHBId")  # the 29-byte .sic header
BLOCK = 8
DICT2D = Dictionary2D(assemble_dictionary(DictionaryKind.DCT2_LINEAR, BLOCK))
CONTAINER = serialize(encode(synthetic_image(32, 32), DICT2D, 30.0)[0])
REPORT_HEADER = "image,dictionary,atoms,cr,psnr_target,psnr_achieved\n"

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("sparseimg: ") and err.count("\n") == 1, err
    return code


@contextlib.contextmanager
def file_with(data, name):
    """``data`` written to ``name`` in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        yield path


@st.composite
def pgm_files(draw):
    side = st.one_of(st.sampled_from([8, 16, 24, 32]), st.integers(0, 32))
    width, height = draw(side), draw(side)
    magic = draw(st.sampled_from([b"P5", b"P5", b"P6", b"P2"]))
    maxval = draw(st.sampled_from([b"255", b"255", b"65535", b"0", b"x"]))
    raster = draw(st.binary(min_size=width * height, max_size=width * height))
    if draw(st.booleans()):
        raster = raster[: draw(st.integers(0, len(raster)))]
    return b"%s\n%d %d\n%s\n%s" % (magic, width, height, maxval, raster)


@st.composite
def containers(draw):
    data = bytearray(CONTAINER)
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(HEADER.size, len(data) - 1))] = draw(st.integers(0, 255))
    else:
        magic, version, width, height, block, code, n_base, target = HEADER.unpack_from(data)

        def kept_or(value, low, high):
            return draw(st.one_of(st.just(value), st.integers(low, high)))

        data[: HEADER.size] = HEADER.pack(
            magic,
            version,
            kept_or(width, 0, 64),
            kept_or(height, 0, 64),
            kept_or(block, 0, 40),
            kept_or(code, 0, 3),
            kept_or(n_base, 0, 200),
            target,
        )
    return bytes(data)


@st.composite
def report_files(draw):
    text = draw(st.text(alphabet="ab1.-,\"\n", max_size=80))
    if draw(st.booleans()):
        text = REPORT_HEADER + text
    return text.encode()


@pytest.mark.parametrize("method", ["omp_linear", "dct"])
@SETTINGS
@given(data=pgm_files())
def test_encode_any_pgm(method, data):
    with file_with(data, "in.pgm") as pgm:
        run_cli(["encode", "--method", method, "--block", str(BLOCK), "--psnr", "20", str(pgm)])


# a 16x16 image with texture: a high target is out of reach of every method
PGM = b"P5\n16 16\n255\n" + synthetic_image(16, 16).pixels.tobytes()


@pytest.mark.parametrize("method", ["omp_linear", "dct", "cdf97"])
@SETTINGS
@given(psnr=st.one_of(
    st.floats(0.5, 120.0),
    st.floats(120.0, 1e6),
    st.sampled_from([400.0, math.inf, math.nan, 0.0, -3.0, 1e-300]),
))
@example(psnr=400.0)
def test_encode_any_psnr(method, psnr):
    # targets beyond reach end with exit 3 and one line, and leave no report row
    with file_with(PGM, "in.pgm") as pgm:
        report = pgm.with_name("r.csv")
        argv = ["encode", "--method", method, "--block", str(BLOCK), "--levels", "2", f"--psnr={psnr!r}"]
        code = run_cli(argv + ["--report", str(report), str(pgm)])
        assert report.exists() == (code == 0)
        if psnr == 400.0:
            assert code == 3


@SETTINGS
@given(data=containers())
def test_decode_any_container(data):
    with file_with(data, "in.sic") as sic:
        run_cli(["decode", str(sic), "--out", str(sic.with_suffix(".pgm"))])


@SETTINGS
@given(data=report_files())
def test_table_any_report(data):
    with file_with(data, "r.csv") as report:
        run_cli(["table", str(report)])
