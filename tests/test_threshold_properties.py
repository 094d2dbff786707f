"""Generated differential checks of the baselines' threshold search.

``threshold_to_psnr`` finds each exact probe's kept set from one sort of the
magnitudes, and settles block-DCT probes by Parseval's identity within a
proven margin. ``_oracles.threshold_to_psnr`` is the search with a stable
argsort and an inverse transform at every probe. Both must return the same
kept count and the same PSNR bits, or raise the same exception, on:

- constant images, few-level blocky images (whose coefficients tie
  exactly), uniform noise and windows of the corpus crops;
- the block DCT at L = 4, 8 and 16, and CDF 9/7 at 1-3 levels;
- targets of 1e-6 dB, 30-60 dB, 250-330 dB (the rounding floor) and ones
  that no kept count reaches, or targets near the count that decides them;
- block-DCT coefficients that are not the forward transform of the image:
  with 1-3 of them set to zero; those of the image plus Gaussian noise of
  0.25-64 grey levels, so that even every coefficient kept leaves a
  residual; values drawn from a few, +-0.0 among them; and magnitudes
  spread over 18 decades, with the image their exact inverse, so that the
  keep-all residual is 0 and only the rounding allowance keeps the probes
  next to the floor exact. Half of these magnitudes are scaled by 1e-150,
  where the squares underflow.

Values or images holding a nan or an inf are refused before any probe;
``test_baselines.py`` tests that refusal.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from sparseimg import TransformCoeffs, cdf97_forward, dct2_block_forward, threshold_to_psnr  # noqa: E402
from sparseimg.baselines import DCT_KIND, dct2_block_inverse, inverse_transform  # noqa: E402
from sparseimg.codec import psnr  # noqa: E402

from _corpus import CROP, crop, corpus  # noqa: E402
import _oracles  # noqa: E402

SETTINGS = settings(
    max_examples=400, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
MAX_SIDE = 48
TRANSFORMS = [("dct", 4), ("dct", 8), ("dct", 16), ("cdf97", 1), ("cdf97", 2), ("cdf97", 3)]
TIED_VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 100.0]
FIXED_TARGETS = st.one_of(
    st.just(1e-6), st.floats(30.0, 60.0), st.floats(250.0, 330.0), st.sampled_from([400.0, 1e6, math.inf])
)


@st.composite
def images(draw, unit: int) -> np.ndarray:
    h, w = (unit * draw(st.integers(1, MAX_SIDE // unit)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["constant", "levels", "noise", "crop"]))
    if kind == "constant":
        return np.full((h, w), draw(st.sampled_from([0.0, 1.0, 37.25, 128.0, 255.0])))
    if kind == "levels":
        levels = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 64.0, 128.0, 255.0]), min_size=1, max_size=3, unique=True))
        tile = draw(st.sampled_from([t for t in (1, 2, 4, 8) if h % t == 0 and w % t == 0]))
        return np.kron(rng.choice(levels, size=(h // tile, w // tile)), np.ones((tile, tile)))
    if kind == "noise":
        return rng.uniform(0.0, 255.0, size=(h, w))
    name = draw(st.sampled_from(corpus.NAMES))
    y, x = draw(st.integers(0, CROP - h)), draw(st.integers(0, CROP - w))
    return crop(name).as_float()[y : y + h, x : x + w]


@st.composite
def cases(draw):
    transform, size = draw(st.sampled_from(TRANSFORMS))
    unit = size if transform == "dct" else 1 << size
    img = draw(images(unit))
    if transform == "cdf97":
        return cdf97_forward(img, size), img
    source = draw(st.sampled_from(["forward", "holes", "other", "tied", "spread"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if source == "forward":
        return dct2_block_forward(img, size), img
    if source == "holes":
        coeffs = dct2_block_forward(img, size)
        coeffs.values[np.unravel_index(rng.choice(img.size, draw(st.integers(1, 3))), img.shape)] = 0.0
        return coeffs, img
    if source == "other":
        noise = draw(st.sampled_from([0.25, 1.0, 4.0, 64.0])) * rng.standard_normal(img.shape)
        return dct2_block_forward(img + noise, size), img
    if source == "tied":
        return TransformCoeffs(kind=DCT_KIND, values=rng.choice(TIED_VALUES, size=img.shape), block_size=size), img
    magnitudes = draw(st.sampled_from([1.0, 1e-150])) * 10.0 ** rng.uniform(-15.0, 3.0, size=img.shape)
    coeffs = TransformCoeffs(kind=DCT_KIND, values=rng.choice([-1.0, 1.0], size=img.shape) * magnitudes, block_size=size)
    return coeffs, dct2_block_inverse(coeffs)


@st.composite
def targets(draw, coeffs, img) -> float:
    """A target of a fixed kind, or one near the count that decides it: up to
    12 dB below the PSNR that every coefficient kept gives, or, where that
    PSNR is infinite, within 20 dB of the PSNR of a residual at the rounding
    of the largest coefficient, where rounding decides the exact probes."""
    whole = psnr(img, inverse_transform(coeffs))
    largest = float(np.abs(coeffs.values).max())
    if math.isnan(whole) or (math.isinf(whole) and largest == 0.0) or draw(st.booleans()):
        return draw(FIXED_TARGETS)
    if math.isinf(whole):
        return 20.0 * math.log10(255.0 / (largest * 2.0**-53)) + draw(st.floats(-20.0, 20.0))
    return max(whole - draw(st.floats(0.0, 12.0)), 1e-6)


def outcome(search, coeffs, img, target):
    """``(kept, PSNR bits)``, or the exception's type and message."""
    try:
        kept, achieved = search(coeffs, img, target)
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)
    return kept, float(achieved).hex()


@SETTINGS
@given(cases(), st.data())
def test_matches_the_search_with_an_inverse_at_every_probe(case, data):
    coeffs, img = case
    target = data.draw(targets(coeffs, img))
    assert outcome(threshold_to_psnr, coeffs, img, target) == outcome(_oracles.threshold_to_psnr, coeffs, img, target)
