"""The codec's cases on the benchmark's seeded synthetic corpus, encoded once.

The recipes are imported from ``perfbench/corpus.py`` by path: there is one
definition of each image. ``tests/test_corpus.py`` and
``tests/test_golden.py`` check the same encodes, so they share them here.
"""

from __future__ import annotations

import importlib.util
from functools import lru_cache
from pathlib import Path

from sparseimg import (
    Dictionary2D,
    DictionaryKind,
    ImageGray8,
    assemble_dictionary,
    cdf97_forward,
    dct2_block_forward,
    encode,
    threshold_to_psnr,
)

_spec = importlib.util.spec_from_file_location(
    "corpus", Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

SEED = 1
CROP = 128
TARGET_DB = 40.0
CDF97_LEVELS = 5

# (dictionary, block side) of the crops, with their test ids
CONFIGS = [(DictionaryKind.DCT2_LINEAR, 16), (DictionaryKind.DCT2_CUBIC, 16), (DictionaryKind.DCT2_LINEAR, 8)]
CONFIG_IDS = ["omp_linear-16", "omp_cubic-16", "omp_linear-8"]

# The paper's regime, fixed before its first measurement: corpus mixed,
# seed 2, the centre 256x256 crop, omp_linear at L = 16.
MIXED_CENTRE = "mixed-centre"


@lru_cache(maxsize=None)
def crop(name: str) -> ImageGray8:
    """The top-left CROP x CROP of corpus image ``name`` at SEED, or the mixed centre."""
    if name == MIXED_CENTRE:
        return ImageGray8.from_array(corpus.make_image("mixed", 2)[128:384, 128:384])
    return ImageGray8.from_array(corpus.make_image(name, SEED)[:CROP, :CROP])


@lru_cache(maxsize=None)
def dictionary(kind: DictionaryKind, L: int) -> Dictionary2D:
    return Dictionary2D(assemble_dictionary(kind, L))


@lru_cache(maxsize=None)
def encoded(name: str, kind: DictionaryKind, L: int):
    """``encode`` of ``crop(name)`` at TARGET_DB: the encoded image and its report."""
    image_name = "mixed" if name == MIXED_CENTRE else name
    return encode(crop(name), dictionary(kind, L), TARGET_DB, image_name=image_name)


@lru_cache(maxsize=None)
def kept(name: str, L: int) -> tuple[int, int]:
    """Coefficients block DCT at L and CDF 9/7 keep to reach TARGET_DB on ``crop(name)``."""
    data = crop(name).as_float()
    dct_kept, _ = threshold_to_psnr(dct2_block_forward(data, L), data, TARGET_DB)
    cdf_kept, _ = threshold_to_psnr(cdf97_forward(data, CDF97_LEVELS), data, TARGET_DB)
    return dct_kept, cdf_kept
