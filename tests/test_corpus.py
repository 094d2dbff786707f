"""Codec checks on the benchmark's seeded synthetic corpus.

Unlike the classic test photographs, the corpus is always available, so
these checks run everywhere. The recipes are imported from
``perfbench/corpus.py`` by path: there is one definition of each image.

Run with ``pytest tests/test_corpus.py -v -s`` to see the compression
ratios. They are printed without a gate, except on the paper's regime:
the centre of ``mixed``, where the paper's 1.5x gain over block DCT and
CDF 9/7 is checked.
"""

import importlib.util
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from sparseimg import (
    Dictionary2D,
    DictionaryKind,
    ImageGray8,
    assemble_dictionary,
    cdf97_forward,
    dct2_block_forward,
    decode,
    encode,
    psnr,
    threshold_to_psnr,
)
from sparseimg.codec import deserialize, serialize

_spec = importlib.util.spec_from_file_location(
    "corpus", Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

SEED = 1
CROP = 128
TARGET_DB = 40.0


@lru_cache(maxsize=None)
def crop(name: str) -> ImageGray8:
    return ImageGray8.from_array(corpus.make_image(name, SEED)[:CROP, :CROP])


@lru_cache(maxsize=None)
def dictionary(kind: DictionaryKind, L: int) -> Dictionary2D:
    return Dictionary2D(assemble_dictionary(kind, L))


@pytest.mark.parametrize(
    "kind, L",
    [(DictionaryKind.DCT2_LINEAR, 16), (DictionaryKind.DCT2_CUBIC, 16), (DictionaryKind.DCT2_LINEAR, 8)],
    ids=["omp_linear-16", "omp_cubic-16", "omp_linear-8"],
)
@pytest.mark.parametrize("name", corpus.NAMES)
def test_decode_meets_target_and_container_round_trips(name, kind, L):
    img, d = crop(name), dictionary(kind, L)
    enc, report = encode(img, d, TARGET_DB, image_name=name)
    decoded = decode(enc, d)
    achieved = psnr(img, decoded)
    assert achieved >= TARGET_DB, f"{name}: {achieved:.2f} dB"

    payload = serialize(enc)
    parsed = deserialize(payload)
    assert serialize(parsed) == payload
    assert decode(parsed, d).tobytes() == decoded.tobytes()

    data = img.as_float()
    dct_kept, _ = threshold_to_psnr(dct2_block_forward(data, L), data, TARGET_DB)
    cdf_kept, _ = threshold_to_psnr(cdf97_forward(data, 5), data, TARGET_DB)
    print(
        f"corpus seed {SEED} {name} {CROP}x{CROP} {kind.value} L={L}: {achieved:.2f} dB, "
        f"CR omp={report.compression_ratio:.2f} dct={data.size / dct_kept:.2f} "
        f"cdf97={data.size / cdf_kept:.2f}"
    )


def test_paper_gain_on_the_mixed_centre():
    # fixed before its first measurement: corpus mixed, seed 2, the centre
    # 256x256 crop, 40 dB, omp_linear and block DCT at L = 16, CDF 9/7 at 5 levels
    img = ImageGray8.from_array(corpus.make_image("mixed", 2)[128:384, 128:384])
    _, report = encode(img, dictionary(DictionaryKind.DCT2_LINEAR, 16), TARGET_DB, image_name="mixed")
    data = img.as_float()
    dct_kept, _ = threshold_to_psnr(dct2_block_forward(data, 16), data, TARGET_DB)
    cdf_kept, _ = threshold_to_psnr(cdf97_forward(data, 5), data, TARGET_DB)
    vs_dct = report.compression_ratio / (data.size / dct_kept)
    vs_cdf97 = report.compression_ratio / (data.size / cdf_kept)
    print(f"corpus seed 2 mixed centre 256x256: CR omp/dct={vs_dct:.3f} omp/cdf97={vs_cdf97:.3f}")
    assert vs_dct >= 1.5
    assert vs_cdf97 >= 1.5
