"""Transform-coding baselines: block DCT and CDF 9/7 wavelet thresholding.

Both transforms are invertible to machine precision, so any PSNR target is
reachable by keeping enough of the largest-magnitude coefficients. The kept
count at the target PSNR is the baseline's sparsity figure, directly
comparable with the pursuit's atom count.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace

import numpy as np

from .codec import from_blocks, psnr, to_blocks

DCT_KIND = "dct2_block"
CDF97_KIND = "cdf97_full"

# CDF 9/7 lifting constants (two predict steps, two update steps) and the
# subband scaling that makes the transform near-orthonormal: the lowpass DC
# gain and the highpass Nyquist gain both become sqrt(2).
CDF97_ALPHA = -1.586134342059924
CDF97_BETA = -0.052980118572961
CDF97_GAMMA = 0.882911075530934
CDF97_DELTA = 0.443506852043971
CDF97_SCALE = 1.149604398860241


@dataclass
class TransformCoeffs:
    """Transform-domain image: the coefficient array plus transform metadata."""

    kind: str
    values: np.ndarray
    block_size: int | None = None
    levels: int | None = None


def dct_matrix(L: int) -> np.ndarray:
    """Orthonormal DCT-II basis matrix (rows are basis vectors)."""
    x = np.arange(L)
    D = np.cos(np.pi * (2.0 * x[None, :] + 1.0) * x[:, None] / (2.0 * L))
    D *= np.sqrt(2.0 / L)
    D[0, :] /= np.sqrt(2.0)
    return D


def dct2_block_forward(img: np.ndarray, L: int = 16) -> TransformCoeffs:
    """Orthonormal 2D DCT-II applied independently to each ``L x L`` block."""
    img = np.asarray(img, dtype=np.float64)
    D = dct_matrix(L)
    coeffs = from_blocks(D @ to_blocks(img, L) @ D.T)
    return TransformCoeffs(kind=DCT_KIND, values=coeffs, block_size=L)


def dct2_block_inverse(coeffs: TransformCoeffs) -> np.ndarray:
    D = dct_matrix(coeffs.block_size)
    return from_blocks(D.T @ to_blocks(coeffs.values, coeffs.block_size) @ D)


def _lift_axis0(a: np.ndarray) -> None:
    """One CDF 9/7 analysis pass along axis 0, in place on ``[s | d]`` halves."""
    n = a.shape[0]
    s, d = a[0::2].copy(), a[1::2].copy()
    d += CDF97_ALPHA * (s + np.concatenate([s[1:], s[-1:]]))
    s += CDF97_BETA * (d + np.concatenate([d[:1], d[:-1]]))
    d += CDF97_GAMMA * (s + np.concatenate([s[1:], s[-1:]]))
    s += CDF97_DELTA * (d + np.concatenate([d[:1], d[:-1]]))
    a[: n // 2] = s * CDF97_SCALE
    a[n // 2 :] = d / CDF97_SCALE


def _unlift_axis0(a: np.ndarray) -> None:
    """Inverse of :func:`_lift_axis0`."""
    n = a.shape[0]
    s = a[: n // 2] / CDF97_SCALE
    d = a[n // 2 :] * CDF97_SCALE
    s -= CDF97_DELTA * (d + np.concatenate([d[:1], d[:-1]]))
    d -= CDF97_GAMMA * (s + np.concatenate([s[1:], s[-1:]]))
    s -= CDF97_BETA * (d + np.concatenate([d[:1], d[:-1]]))
    d -= CDF97_ALPHA * (s + np.concatenate([s[1:], s[-1:]]))
    a[0::2] = s
    a[1::2] = d


def cdf97_forward(img: np.ndarray, levels: int = 5) -> TransformCoeffs:
    """Multi-level 2D CDF 9/7 analysis with whole-sample symmetric extension.

    Subbands are packed in the usual nested layout with the approximation in
    the top-left corner. Image dimensions must be divisible by
    ``2 ** levels``.
    """
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if h % (1 << levels) or w % (1 << levels):
        raise ValueError(f"image {h}x{w} is not divisible by 2^{levels}")
    out = img.copy()
    for level in range(levels):
        hh, ww = h >> level, w >> level
        band = out[:hh, :ww]
        _lift_axis0(band)
        _lift_axis0(band.T)
    return TransformCoeffs(kind=CDF97_KIND, values=out, levels=levels)


def cdf97_inverse(coeffs: TransformCoeffs) -> np.ndarray:
    out = coeffs.values.copy()
    h, w = out.shape
    for level in reversed(range(coeffs.levels)):
        hh, ww = h >> level, w >> level
        band = out[:hh, :ww]
        _unlift_axis0(band.T)
        _unlift_axis0(band)
    return out


def inverse_transform(coeffs: TransformCoeffs) -> np.ndarray:
    if coeffs.kind == DCT_KIND:
        return dct2_block_inverse(coeffs)
    if coeffs.kind == CDF97_KIND:
        return cdf97_inverse(coeffs)
    raise ValueError(f"unknown transform kind {coeffs.kind!r}")


def threshold_to_psnr(
    coeffs: TransformCoeffs, img: np.ndarray, target_db: float
) -> tuple[int, float]:
    """Smallest largest-magnitude coefficient subset reaching the PSNR target.

    Binary-searches the kept count along the magnitude ordering and returns
    ``(kept_count, achieved_psnr)``. The search assumes that the PSNR does
    not fall as the count grows. Keeping everything reproduces the image up
    to rounding; a target beyond the PSNR that gives raises RuntimeError.
    """
    flat = coeffs.values.ravel()
    order = np.argsort(-np.abs(flat), kind="stable")

    def psnr_for(count: int) -> float:
        kept = np.zeros_like(flat)
        idx = order[:count]
        kept[idx] = flat[idx]
        trimmed = replace(coeffs, values=kept.reshape(coeffs.values.shape))
        return psnr(img, inverse_transform(trimmed))

    lo = bisect.bisect_left(range(flat.size), True, key=lambda count: psnr_for(count) >= target_db)
    achieved = psnr_for(lo)
    if achieved < target_db:  # the search ended at every coefficient kept
        raise RuntimeError(f"PSNR {target_db} dB unreachable even with all coefficients")
    return lo, achieved
