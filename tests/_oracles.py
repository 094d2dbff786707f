"""Independent reference implementations used as test oracles.

Everything here recomputes results along a different route than the package:
exact rational truncated-power sums, the 1D dictionary one atom at a time,
dense flattened inner products,
normal-equations solves, direct filter-bank convolution, the ``.sic``
container written and read one entry at a time, and the baselines' kept
count found with one inverse transform per probe.
"""

from __future__ import annotations

import bisect
import io
import math
import struct
from dataclasses import replace
from fractions import Fraction

import numpy as np

from sparseimg import DictionaryKind, EncodedImage, SparseBlock, TransformCoeffs, sample_prototype
from sparseimg.baselines import inverse_transform
from sparseimg.dictionary import DILATIONS
from sparseimg.codec import (
    _HEADER,
    MAGIC,
    MAX_BLOCK,
    MAX_COEFF,
    MAX_ENTRIES,
    MAX_N_BASE,
    VERSION,
    ContainerError,
    psnr,
)

_COUNT = struct.Struct("<H")
_ENTRY = struct.Struct("<Id")


def bspline_fraction(m: int, x: Fraction) -> Fraction:
    """Truncated-power cardinal B-spline evaluated in exact rational arithmetic."""
    acc = Fraction(0)
    for i in range(m + 1):
        t = x - i
        if t > 0:
            acc += (-1) ** i * math.comb(m, i) * t ** (m - 1)
    return acc / math.factorial(m - 1)


def flattened_atoms(dict2d) -> np.ndarray:
    """Dense (n_atoms, L*L) matrix of every 2D atom, row-major over (i, j)."""
    U = dict2d.base.matrix
    n = U.shape[1]
    return np.einsum("ri,cj->ijrc", U, U).reshape(n * n, -1)


def brute_correlations(dict2d, block: np.ndarray) -> np.ndarray:
    """Flattened dense inner products, reshaped to the (i, j) grid."""
    n = dict2d.n_base
    return (flattened_atoms(dict2d) @ np.asarray(block, float).ravel()).reshape(n, n)


def least_squares_coeffs(dictionary, addresses, signal: np.ndarray) -> np.ndarray:
    """Normal-equations solution over the selected atom columns."""
    A = np.column_stack([dictionary.atom_flat(dictionary.flat_index(a)) for a in addresses])
    coeffs, *_ = np.linalg.lstsq(A, np.asarray(signal, float).ravel(), rcond=None)
    return coeffs


# The 1D dictionary built one atom at a time, each into an array of its own,
# and stacked column by column.


def dictionary_matrix(kind: DictionaryKind, L: int) -> np.ndarray:
    """``L x n_atoms`` matrix of the 1D dictionary of ``kind``."""
    m = DictionaryKind(kind).spline_order
    atoms = _cosine_atoms(L, 2 * L)
    for d in DILATIONS:
        atoms.extend(_spline_atoms(sample_prototype(m, d), L))
    return np.column_stack(atoms)


def _spline_atoms(proto, L: int) -> list[np.ndarray]:
    s = proto.support
    atoms = []
    for label, t in enumerate(range(1 - s, L)):
        lo, hi = max(0, t), min(L, t + s)
        vals = np.zeros(L, dtype=np.float64)
        vals[lo:hi] = proto.values[lo - t : hi - t]
        vals /= np.linalg.norm(vals)
        atoms.append(vals)
    return atoms


def _cosine_atoms(L: int, M: int) -> list[np.ndarray]:
    j = np.arange(1, L + 1, dtype=np.float64)
    atoms = []
    for idx in range(M):
        vals = np.cos(np.pi * (2.0 * j - 1.0) * idx / (4.0 * L))
        vals /= np.linalg.norm(vals)
        atoms.append(vals)
    return atoms


# Published CDF 9/7 analysis filter taps, unit-DC-gain normalization: the
# 9-tap lowpass (centered) and 7-tap highpass (centered at the odd phase).
CDF97_H0 = np.array(
    [
        0.026748757410810,
        -0.016864118442875,
        -0.078223266528990,
        0.266864118442875,
        0.602949018236360,
        0.266864118442875,
        -0.078223266528990,
        -0.016864118442875,
        0.026748757410810,
    ]
)
CDF97_G0 = np.array(
    [
        0.091271763114250,
        -0.057543526228500,
        -0.591271763114250,
        1.115087052457000,
        -0.591271763114250,
        -0.057543526228500,
        0.091271763114250,
    ]
)


def _wss_index(idx: int, n: int) -> int:
    """Whole-sample symmetric extension: ... 2 1 0 1 2 ... n-2 n-1 n-2 ..."""
    period = 2 * n - 2
    idx = abs(idx) % period
    return period - idx if idx >= n else idx


def _analyze_axis0(a: np.ndarray) -> np.ndarray:
    """Single-level 9/7 analysis along axis 0 by direct convolution.

    Lowpass samples sit at even positions (scaled by sqrt 2), highpass at odd
    positions (scaled by 1/sqrt 2); output packs [lowpass | highpass].
    """
    n = a.shape[0]
    s2 = math.sqrt(2.0)
    low = np.zeros((n // 2,) + a.shape[1:])
    high = np.zeros((n // 2,) + a.shape[1:])
    for i in range(n // 2):
        for k, tap in enumerate(CDF97_H0):
            low[i] += s2 * tap * a[_wss_index(2 * i + k - 4, n)]
        for k, tap in enumerate(CDF97_G0):
            high[i] += tap / s2 * a[_wss_index(2 * i + 1 + k - 3, n)]
    return np.concatenate([low, high], axis=0)


def cdf97_analysis_2d(img: np.ndarray) -> np.ndarray:
    """Single-level separable 2D 9/7 analysis by direct convolution."""
    out = _analyze_axis0(np.asarray(img, float))
    return _analyze_axis0(out.T).T


# The container codec one struct call per count and per entry, each entry
# checked as it is read or written: the first fault in stream order raises.


def serialize(enc: EncodedImage) -> bytes:
    if enc.n_base > MAX_N_BASE:
        raise ValueError(f"n_base {enc.n_base} exceeds {MAX_N_BASE}: addresses would overflow u32")
    buf = io.BytesIO()
    buf.write(
        _HEADER.pack(
            MAGIC,
            VERSION,
            enc.width,
            enc.height,
            enc.block_size,
            enc.kind.wire_code,
            enc.n_base,
            enc.target_psnr,
        )
    )
    for n, sparse in enumerate(enc.blocks):
        if len(sparse.entries) > MAX_ENTRIES:
            raise ValueError(
                f"block {divmod(n, enc.grid[1])} holds {len(sparse.entries)} atoms; "
                f"a container block holds at most {MAX_ENTRIES}"
            )
        buf.write(_COUNT.pack(len(sparse.entries)))
        for (i, j), coeff in sparse.entries:
            # off the n_base x n_base grid, an address would read back as
            # another atom or out of range
            if not (0 <= i < enc.n_base and 0 <= j < enc.n_base):
                raise ValueError(
                    f"block {divmod(n, enc.grid[1])} holds address {(i, j)}, "
                    f"which has no flat index with n_base {enc.n_base}"
                )
            if not -MAX_COEFF <= coeff <= MAX_COEFF:
                raise ValueError(
                    f"block {divmod(n, enc.grid[1])} holds coefficient {coeff}, "
                    f"outside +-{MAX_COEFF:g}"
                )
            buf.write(_ENTRY.pack(i * enc.n_base + j, coeff))
    return buf.getvalue()


def deserialize(data: bytes) -> EncodedImage:
    if len(data) < _HEADER.size:
        raise ContainerError("header truncated", len(data))
    magic, version, width, height, block, code, n_base, target = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}", 4)
    if width == 0:
        raise ContainerError("image width 0", 6)
    if height == 0:
        raise ContainerError("image height 0", 10)
    try:
        kind = DictionaryKind.from_wire_code(code)
    except ValueError as exc:
        raise ContainerError(str(exc), 16) from None
    if n_base > MAX_N_BASE:
        raise ContainerError(f"n_base {n_base} exceeds {MAX_N_BASE}", 17)
    if block > MAX_BLOCK:
        # no encoder can write it, and decoding would build a dictionary for it
        raise ContainerError(f"block size {block} exceeds {MAX_BLOCK}", 14)
    if block == 0 or width % block or height % block:
        raise ContainerError(f"block size {block} does not tile {width}x{height}", 14)
    n_blocks = (width // block) * (height // block)

    pos = _HEADER.size
    blocks = []
    for _ in range(n_blocks):
        if pos + _COUNT.size > len(data):
            raise ContainerError("block count truncated", pos)
        (count,) = _COUNT.unpack_from(data, pos)
        pos += _COUNT.size
        entries = []
        for _ in range(count):
            if pos + _ENTRY.size > len(data):
                raise ContainerError("entry truncated", pos)
            flat, coeff = _ENTRY.unpack_from(data, pos)
            pos += _ENTRY.size
            if flat >= n_base * n_base:
                raise ContainerError(f"atom address {flat} out of range", pos - _ENTRY.size)
            if not -MAX_COEFF <= coeff <= MAX_COEFF:
                raise ContainerError(f"coefficient {coeff} out of range", pos - _ENTRY.size + 4)
            entries.append(((flat // n_base, flat % n_base), coeff))
        blocks.append(SparseBlock(entries=entries))
    if pos != len(data):
        raise ContainerError(f"{len(data) - pos} trailing bytes", pos)
    return EncodedImage(
        width=width,
        height=height,
        block_size=block,
        kind=kind,
        n_base=n_base,
        target_psnr=target,
        counts=[len(sparse.entries) for sparse in blocks],
        flats=[i * n_base + j for sparse in blocks for (i, j), _ in sparse.entries],
        coeffs=[coeff for sparse in blocks for _, coeff in sparse.entries],
    )


# The baselines' threshold search with a stable argsort and an inverse
# transform at every probe.


def threshold_to_psnr(
    coeffs: TransformCoeffs, img: np.ndarray, target_db: float
) -> tuple[int, float]:
    """Smallest largest-magnitude coefficient subset reaching the PSNR target.

    Binary-searches the kept count along the magnitude ordering and returns
    ``(kept_count, achieved_psnr)``. The search assumes that the PSNR does
    not fall as the count grows. Keeping everything reproduces the image up
    to rounding; a target beyond the PSNR that gives raises RuntimeError. A
    nan or an inf among the values or the pixels raises ValueError first.
    """
    if not (np.isfinite(coeffs.values).all() and np.isfinite(img).all()):
        raise ValueError("transform values and image must be finite")
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
    if not achieved >= target_db:  # the search ended at every coefficient kept, and nan meets no target
        raise RuntimeError(f"PSNR {target_db} dB unreachable even with all coefficients")
    return lo, achieved
