"""Transform-coding baselines: block DCT and CDF 9/7 wavelet thresholding.

Both transforms are invertible to machine precision, so any PSNR target is
reachable by keeping enough of the largest-magnitude coefficients. The kept
count at the target PSNR is the baseline's sparsity figure, directly
comparable with the pursuit's atom count.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .codec import _mse, _mse_to_psnr, from_blocks, psnr_to_block_sse, to_blocks

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
    ``(kept_count, achieved_psnr)``. The ordering is a stable sort of the
    magnitudes, largest first: equal magnitudes go in index order. The
    search assumes that the PSNR does not fall as the count grows. Keeping
    everything reproduces the image up to rounding; a target beyond the PSNR
    that gives raises RuntimeError, as does a nan PSNR. ValueError comes
    first for a target not > 0 and for a nan or an inf in values or image.

    An exact probe at ``count`` keeps every magnitude above the ``count``-th
    largest, ``m``, and as many of those equal to ``m`` as fit, smallest index
    first; it runs one inverse transform, at most once per count. For the
    block DCT a probe is settled without one wherever Parseval's identity
    proves the exact probe's answer, so the search takes the same path and
    returns the same bits.

    The rule: let ``tail`` be the energy of the coefficients a probe drops,
    ``n`` the number of coefficients and ``sse = n * 255**2 * 10**(-target /
    10)``. The probe is True when ``sqrt(tail) + delta < sqrt(sse) * (1 -
    1e-9)`` and False when ``sqrt(tail) - delta > sqrt(sse) * (1 + 1e-9)``,
    where

        delta = |img - inverse(values)| + 2**-30 * (|img| + |values|)

    reads the keep-all probe. Any other probe runs exactly.

    Why: ``img - inverse(kept) = (img - inverse(values)) + B(dropped) + e``,
    where ``B`` is the inverse in exact arithmetic with the float DCT matrix
    ``D``, and ``e`` is rounding. ``|B(dropped)| = sqrt(tail)`` up to a
    relative ``L * 2**-51``: ``D`` is orthonormal to within that (measured up
    to L = 1024). Each of the two inverses errs by at most ``2 * L**1.5 *
    2**-53`` times the norm of its input (two products of inner length L),
    and the subtraction adds ``2**-53 * (|img| + |inverse(kept)|)``. At L = 16
    these sum to less than 1e-4 of the ``2**-30`` term, and stay below it for
    every L up to 10**4. So the exact residual norm lies within ``delta`` of
    ``sqrt(tail)``. The 1e-9 margin covers the rounding of the exact probe's
    PSNR comparison, about 1e-13 relative.

    Two refinements keep the proof whole at any size and scale. ``tail`` and
    the residual, ``sqrt(n * mse)``, are float sums of up to ``n`` squares,
    in any order, with relative errors below ``n * 2**-53``; ``rho = n *
    2**-52`` also covers the mean's division and multiplication by ``n``.
    ``tail`` is scaled by ``1 + rho`` for True and by ``1 - rho`` for False,
    and the residual by ``1 + rho``. A square that underflows loses at most
    ``2**-1074``, so a norm of ``n`` squares (``tail``, the residual, the
    exact probe's MSE) loses at most ``sqrt(n) * 2**-537``, a subnormal mean
    as much again. Below ``sse = n * 2**-1000`` no probe is settled; above it
    ``1e-9 * sqrt(sse) > sqrt(n) * 2**-530`` covers all of these. An inf or
    nan in the bounds settles nothing.

    CDF 9/7 is not orthonormal, and no cheap sound bound on its synthesis
    error is known, so all of its probes run exactly.
    """
    psnr_to_block_sse(target_db, 1)  # raises ValueError unless target_db > 0
    if not (np.isfinite(coeffs.values).all() and np.isfinite(img).all()):
        raise ValueError("transform values and image must be finite")
    flat = coeffs.values.ravel()
    ranked = -np.abs(flat, dtype=np.float64)
    ranked.sort()  # largest magnitude first; the one array held across the search

    @functools.cache
    def mse_at(count: int) -> float:
        """The exact probe: the MSE with every coefficient it drops set to 0."""
        m = ranked[count - 1] if count else -np.inf  # -inf keeps nothing
        key = -np.abs(flat, dtype=np.float64)
        keep = key < m
        ties = np.flatnonzero(key == m)  # in index order, as the stable sort has them
        keep[ties[: count - np.searchsorted(ranked, m)]] = True
        kept = np.where(keep, flat, 0).reshape(coeffs.values.shape)
        del key, keep, ties  # held across the inverse, they made a 512² CDF 9/7 search 1.5x slower
        return _mse(img, inverse_transform(replace(coeffs, values=kept)))

    settle = _parseval_settler(mse_at, img, ranked, target_db) if coeffs.kind == DCT_KIND else lambda count: None

    def reaches(count: int) -> bool:
        verdict = settle(count)
        return _mse_to_psnr(mse_at(count)) >= target_db if verdict is None else verdict

    lo = bisect.bisect_left(range(flat.size), True, key=reaches)
    achieved = _mse_to_psnr(mse_at(lo))
    if not achieved >= target_db:  # the search ended at every coefficient kept, and nan meets no target
        raise RuntimeError(f"PSNR {target_db} dB unreachable even with all coefficients")
    return lo, achieved


def _parseval_settler(mse_at, img: np.ndarray, ranked: np.ndarray, target_db: float):
    """The block-DCT probe rule of :func:`threshold_to_psnr`: a function of
    the count that returns True or False where Parseval's identity proves the
    exact probe's answer, and None elsewhere. ``mse_at`` is the exact probe;
    ``ranked`` is ``-|values|`` sorted, and ``tail`` at ``count`` is the
    energy of ``ranked[count:]``."""
    mse = psnr_to_block_sse(target_db, 1)
    if mse < 2.0**-1000:  # the margin no longer covers what squares that underflow can hide
        return lambda count: None
    n = ranked.size
    rho = n * 2.0**-52
    residual = math.sqrt(n * mse_at(n))  # |img - inverse(values)|, from the keep-all probe
    with np.errstate(over="ignore"):
        delta = residual * (1.0 + rho) + 2.0**-30 * float(np.linalg.norm(img) + np.linalg.norm(ranked))
    reach = math.sqrt(n * mse)
    below, above = reach * (1.0 - 1e-9) - delta, reach * (1.0 + 1e-9) + delta

    def settle(count: int) -> bool | None:
        with np.errstate(over="ignore"):
            tail = float(np.dot(ranked[count:], ranked[count:]))
        if math.sqrt(tail * (1.0 + rho)) < below:
            return True
        if math.sqrt(tail * (1.0 - rho)) > above:
            return False
        return None

    return settle
