"""Properties of the ``.sic`` container.

- ``deserialize`` on any bytes, arbitrary or a mutated real container,
  either returns an image that serializes back to the same bytes or raises
  ``ContainerError`` with an offset between 0 and the length of the data;
- ``deserialize(serialize(e))`` reproduces every in-limit ``EncodedImage``;
- ``serialize`` and ``deserialize`` agree with the per-entry codec of
  ``tests/_oracles.py``: the same bytes, the same blocks, or the same
  exception type, message and offset.
"""

import math
import struct

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sparseimg import Dictionary2D, DictionaryKind, EncodedImage, SparseBlock, assemble_dictionary, encode  # noqa: E402
from sparseimg.codec import MAX_BLOCK, MAX_COEFF, MAX_ENTRIES, MAX_N_BASE, ContainerError, deserialize, serialize  # noqa: E402

import _oracles  # noqa: E402
from conftest import synthetic_image  # noqa: E402

DICT2D = Dictionary2D(assemble_dictionary(DictionaryKind.DCT2_LINEAR, 8))
ENCODED = encode(synthetic_image(32, 32), DICT2D, 30.0)[0]
CONTAINER = serialize(ENCODED)
# byte offset of each entry of CONTAINER: the header, the counts of its
# block and of the blocks before it, and the entries before it
ENTRY_AT = [
    29 + 2 * (n + 1) + 12 * t
    for t, n in enumerate(n for n, block in enumerate(ENCODED.blocks) for _ in block.entries)
]
# coefficients that would not read back, or would not decode
WILD = [math.nan, math.inf, -math.inf, 1e301, -1.7e308]

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def outcome(codec, arg):
    """What ``codec(arg)`` returns, or the type, message and offset of the
    ``ValueError`` it raises."""
    try:
        return codec(arg)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


@st.composite
def mutated_containers(draw):
    data = bytearray(CONTAINER)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["set", "truncate", "insert", "delete"]))
        at = draw(st.integers(0, len(data)))
        if op == "set" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif op == "truncate":
            del data[at:]
        elif op == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=16))
        else:
            del data[at : at + draw(st.integers(1, 16))]
    return bytes(data)


@st.composite
def containers_with_bad_entries(draw):
    """CONTAINER with bad addresses or coefficients planted in a few
    entries, and perhaps cut short after them."""
    data = bytearray(CONTAINER)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.sampled_from(ENTRY_AT))
        if draw(st.booleans()):
            struct.pack_into("<I", data, at, draw(st.integers(ENCODED.n_base**2, 2**32 - 1)))
        else:
            struct.pack_into("<d", data, at + 4, draw(st.sampled_from(WILD)))
    if draw(st.booleans()):
        del data[draw(st.integers(29, len(data))) :]
    return bytes(data)


@SETTINGS
@given(data=st.one_of(st.binary(max_size=120), mutated_containers()))
def test_deserialize_raises_only_container_errors(data):
    try:
        enc = deserialize(data)
    except ContainerError as exc:
        assert 0 <= exc.offset <= len(data)
    else:
        assert serialize(enc) == data


@SETTINGS
@given(data=st.one_of(st.binary(max_size=120), mutated_containers(), containers_with_bad_entries()))
def test_deserialize_matches_the_per_entry_reader(data):
    got, want = outcome(deserialize, data), outcome(_oracles.deserialize, data)
    assert got == want
    if isinstance(want, EncodedImage):
        assert list(got.blocks) == list(want.blocks)


@st.composite
def encoded_images(draw, wild=False):
    """Images that serialize; ``wild`` ones may also hold coefficients out of
    range, a block over MAX_ENTRIES, or an n_base over MAX_N_BASE. Addresses
    off the grid are refused by the constructor, so none are planted."""
    block = draw(st.one_of(st.integers(1, 16), st.just(MAX_BLOCK)))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n_base = draw(st.one_of(st.integers(1, 100), st.just(65535)))
    if wild and draw(st.integers(0, 9)) == 0:
        n_base = MAX_N_BASE + 1
    address = st.tuples(st.integers(0, n_base - 1), st.integers(0, n_base - 1))
    coeff = st.floats(-MAX_COEFF, MAX_COEFF)
    blocks = [
        SparseBlock(entries=draw(st.lists(st.tuples(address, coeff), max_size=5)))
        for _ in range(rows * cols)
    ]
    for _ in range(draw(st.integers(0, 3)) if wild else 0):
        entries = draw(st.sampled_from(blocks)).entries
        if entries:
            t = draw(st.integers(0, len(entries) - 1))
            entries[t] = (entries[t][0], draw(st.sampled_from(WILD)))
    if wild and draw(st.integers(0, 9)) == 0:
        blocks[draw(st.integers(0, len(blocks) - 1))] = SparseBlock(entries=[((0, 0), 1.0)] * (MAX_ENTRIES + 1))
    return EncodedImage(
        width=cols * block,
        height=rows * block,
        block_size=block,
        kind=draw(st.sampled_from(list(DictionaryKind))),
        n_base=n_base,
        target_psnr=draw(st.floats()),
        counts=[len(sparse.entries) for sparse in blocks],
        flats=[i * n_base + j for sparse in blocks for (i, j), _ in sparse.entries],
        coeffs=[coeff for sparse in blocks for _, coeff in sparse.entries],
    )


@SETTINGS
@given(enc=encoded_images())
def test_serialize_round_trips(enc):
    assert deserialize(serialize(enc)) == enc


@SETTINGS
@given(enc=encoded_images(wild=True))
def test_serialize_matches_the_per_entry_writer(enc):
    assert outcome(serialize, enc) == outcome(_oracles.serialize, enc)
