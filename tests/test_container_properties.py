"""Properties of the ``.sic`` container.

- ``deserialize`` on any bytes, arbitrary or a mutated real container,
  either returns an image that serializes back to the same bytes or raises
  ``ContainerError`` with an offset between 0 and the length of the data;
- ``deserialize(serialize(e))`` reproduces every in-limit ``EncodedImage``.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sparseimg import Dictionary2D, DictionaryKind, EncodedImage, SparseBlock, assemble_dictionary, encode  # noqa: E402
from sparseimg.codec import MAX_BLOCK, MAX_COEFF, ContainerError, deserialize, serialize  # noqa: E402

from conftest import synthetic_image  # noqa: E402

DICT2D = Dictionary2D(assemble_dictionary(DictionaryKind.DCT2_LINEAR, 8))
CONTAINER = serialize(encode(synthetic_image(32, 32), DICT2D, 30.0)[0])

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


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


@SETTINGS
@given(data=st.one_of(st.binary(max_size=120), mutated_containers()))
def test_deserialize_raises_only_container_errors(data):
    try:
        enc = deserialize(data)
    except ContainerError as exc:
        assert 0 <= exc.offset <= len(data)
    else:
        assert serialize(enc) == data


@st.composite
def encoded_images(draw):
    block = draw(st.one_of(st.integers(1, 16), st.just(MAX_BLOCK)))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n_base = draw(st.one_of(st.integers(1, 100), st.just(65535)))
    address = st.tuples(st.integers(0, n_base - 1), st.integers(0, n_base - 1))
    coeff = st.floats(-MAX_COEFF, MAX_COEFF)
    blocks = [
        SparseBlock(entries=draw(st.lists(st.tuples(address, coeff), max_size=5)))
        for _ in range(rows * cols)
    ]
    return EncodedImage(
        width=cols * block,
        height=rows * block,
        block_size=block,
        kind=draw(st.sampled_from(list(DictionaryKind))),
        n_base=n_base,
        target_psnr=draw(st.floats(allow_nan=False)),
        blocks=blocks,
    )


@SETTINGS
@given(enc=encoded_images())
def test_serialize_round_trips(enc):
    assert deserialize(serialize(enc)) == enc
