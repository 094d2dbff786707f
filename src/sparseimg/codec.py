"""Block image codec driving the pursuit to a global PSNR target.

The image is split into ``L x L`` blocks (dimensions must divide evenly) and
every block is approximated independently until its residual sum of squares
falls below a uniform per-block threshold derived from the PSNR target; if
every block meets the threshold, the whole image meets the target. Blocks
are independent: the pursuit advances groups of them together, and each
block's expansion is the one it would get alone.

Container format (".sic", little-endian)::

    magic     4s   b"SIC1"
    version   u16  1
    width     u32
    height    u32
    block     u16  block side L
    dict      u8   dictionary wire code
    n_base    u32  1D atom count (addresses are i * n_base + j)
    target    f64  PSNR target in dB
    blocks    row-major; per block: u16 entry count,
              then entries of (u32 flat address, f64 coefficient)

Coefficients are stored unquantized, and within +-MAX_COEFF; the reported
compression ratio is the pure sparsity ratio pixels / retained atoms.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .dictionary import Dictionary2D, DictionaryKind
from .pursuit import PursuitExhaustedError, SparseBlock, StoppingRule, pursue

MAGIC = b"SIC1"
VERSION = 1
_HEADER = struct.Struct("<4sHIIHBId")
_COUNT = np.dtype("<u2")  # each block's entry count
_ENTRY = np.dtype([("flat", "<u4"), ("coeff", "<f8")])  # packed, 12 bytes

# Each block stores its entry count as a u16, and a block of side L keeps up
# to L * L atoms, so L may not exceed isqrt(MAX_ENTRIES).
MAX_ENTRIES = 65535
MAX_BLOCK = math.isqrt(MAX_ENTRIES)
# An entry stores its address as the u32 flat index i * n_base + j, and
# MAX_N_BASE**2 - 1 = 2**32 - 1 is the largest that fits.
MAX_N_BASE = 1 << 16
# A block sums at most MAX_ENTRIES atoms whose values lie in [-1, 1], so no
# decode of coefficients within +-MAX_COEFF overflows (or meets a nan).
MAX_COEFF = 1e300

# Floats that one decode run may hold: the two factors of its atoms and the
# products of its blocks, 2 * L * atoms + L * L * blocks (512 KiB). Every
# 64x64 tile of the benchmark corpus at 40 dB is one run: the largest, mixed
# with omp_cubic at L = 16, needs 36,160 (1,002 atoms; seeds 1-10).
RUN_FLOATS = 1 << 16

PEAK = 255.0


class ContainerError(ValueError):
    """Malformed .sic payload; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class DictionaryMismatchError(ValueError):
    """Container header does not match the dictionary supplied for decoding."""


@dataclass(frozen=True)
class ImageGray8:
    """8-bit grayscale image with row-major pixels."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self) -> None:
        if self.pixels.size == 0:
            raise ValueError(f"image {self.width}x{self.height} has no pixels")
        if self.pixels.shape != (self.height, self.width):
            raise ValueError(f"pixels of shape {self.pixels.shape} for a {self.width}x{self.height} image")
        if self.pixels.dtype != np.uint8:
            # write_pgm writes the pixel bytes as they are
            raise ValueError(f"pixels of dtype {self.pixels.dtype}, not uint8")

    @classmethod
    def from_array(cls, a: np.ndarray) -> "ImageGray8":
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError(f"expected a 2D grayscale array, got shape {a.shape}")
        if a.dtype != np.uint8:
            # an empty array has no range to check; __post_init__ rejects it
            if np.issubdtype(a.dtype, np.integer) and (a.size == 0 or (a.min() >= 0 and a.max() <= 255)):
                a = a.astype(np.uint8)
            else:
                raise ValueError(f"expected 8-bit pixels, got dtype {a.dtype}")
        return cls(width=a.shape[1], height=a.shape[0], pixels=a)

    def as_float(self) -> np.ndarray:
        return self.pixels.astype(np.float64)


def read_pgm(path) -> ImageGray8:
    """Read a binary (P5) PGM file with maxval 255."""
    data = Path(path).read_bytes()
    header = []  # magic, width, height, maxval, each checked as it is read
    for match in re.finditer(rb"#[^\r\n]*|\S+", data):
        word = match[0]
        if word.startswith(b"#"):  # a comment; a "#" inside a token belongs to the token
            continue
        if not header and word != b"P5":
            raise ValueError(f"not a binary PGM (P5) file, magic {word!r}")
        if header and not re.fullmatch(rb"-?[0-9]+", word):
            # int() also takes a sign and underscores, which PGM does not; same message
            raise ValueError(f"invalid literal for int() with base 10: {word!r:.200}")
        header.append(int(word) if header else word)
        if len(header) == 4:
            break
    else:
        raise ValueError("truncated PGM header")
    width, height, maxval = header[1:]
    if width < 0 or height < 0:
        raise ValueError(f"negative image dimensions {width}x{height}")
    if maxval != 255:
        raise ValueError(f"only 8-bit PGM supported, maxval {maxval}")
    start = match.end() + 1  # single whitespace after maxval
    raster = data[start : start + width * height]
    if len(raster) != width * height:
        raise ValueError(f"raster truncated ({len(raster)} of {width * height} bytes)")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()
    return ImageGray8(width=width, height=height, pixels=pixels)


def write_pgm(path, image) -> None:
    """Write ``image`` as binary PGM: an ImageGray8, or an array that
    :meth:`ImageGray8.from_array` accepts. A rejected array writes no file."""
    if not isinstance(image, ImageGray8):
        image = ImageGray8.from_array(image)
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (image.width, image.height))
        f.write(image.pixels.tobytes())


def clamp_to_u8(image: np.ndarray) -> np.ndarray:
    """Round and clip a real-valued image to 8-bit pixels; ``image`` is left as it is."""
    rounded = np.rint(image)
    # clipped in place by the two ufuncs, which skip np.clip's argument handling
    return np.minimum(np.maximum(rounded, 0, out=rounded), 255, out=rounded).astype(np.uint8)


def psnr(original, approx) -> float:
    """Peak signal-to-noise ratio in dB against a peak of 255: finite for
    every positive finite MSE, inf for an MSE of 0, -inf for inf, nan for nan."""
    return _mse_to_psnr(_mse(original, approx))


def _mse(original, approx) -> float:
    """Mean squared difference of two images of the same shape."""
    a = original.as_float() if isinstance(original, ImageGray8) else np.asarray(original, float)
    b = approx.as_float() if isinstance(approx, ImageGray8) else np.asarray(approx, float)
    if a.shape != b.shape:
        raise ValueError(f"image dimensions differ: {a.shape} vs {b.shape}")
    d = a - b
    np.square(d, out=d)
    return float(np.mean(d))


def _mse_to_psnr(mse: float) -> float:
    if mse == 0.0:
        return math.inf
    ratio = PEAK**2 / mse  # inf below an MSE of 255**2 / DBL_MAX, 0 or nan for an inf or nan MSE
    return 10.0 * (math.log10(ratio) if 0.0 < ratio < math.inf else 2.0 * math.log10(PEAK) - math.log10(mse))


def psnr_to_block_sse(target_db: float, L: int) -> float:
    """Per-block residual SSE guaranteeing an image PSNR of ``target_db``.

    The image MSE is the mean of the block MSEs, so capping every block's SSE
    at ``L^2 * 255^2 * 10^(-target/10)`` caps the image MSE at the target
    level.
    """
    if not target_db > 0:
        raise ValueError(f"PSNR target must be positive, got {target_db}")
    return L * L * PEAK**2 * 10.0 ** (-target_db / 10.0)


class EncodedImage:
    """Header plus the sparse expansion of each block of :attr:`grid`, row-major.

    The expansions are held as three read-only columns: ``counts``, the atoms
    of each block; ``flats``, the flat addresses ``i * n_base + j`` of every
    block's atoms, one block after another; and ``coeffs``, their
    coefficients. :attr:`blocks` views them as :class:`SparseBlock` objects.

    The constructor raises ``ValueError`` unless ``block_size >= 1`` tiles
    the image, there is one count per block of the grid, no count is
    negative, the counts sum to the length of both ``flats`` and ``coeffs``,
    and every flat lies in ``[0, n_base**2)``; the message names the first
    bad block. :func:`serialize` checks the coefficients.
    """

    def __init__(
        self, width: int, height: int, block_size: int, kind: DictionaryKind, n_base: int, target_psnr: float,
        counts, flats, coeffs
    ):
        self.width, self.height, self.block_size = width, height, block_size
        self.kind, self.n_base, self.target_psnr = kind, n_base, target_psnr
        self.counts = counts = np.ascontiguousarray(counts, dtype=np.intp)
        self.flats = flats = np.ascontiguousarray(flats, dtype=np.intp)
        self.coeffs = coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
        for column in (counts, flats, coeffs):
            column.flags.writeable = False
        if not (block_size >= 1 and width % block_size == 0 and height % block_size == 0):
            raise ValueError(f"block size {block_size} does not tile {width}x{height}")
        # whole-array checks; the bad block is looked for only on failure
        rows, cols = self.grid
        if len(counts) != rows * cols:
            raise ValueError(
                f"{len(counts)} blocks for a {self.width}x{self.height} image, "
                f"which has {rows * cols} blocks of {self.block_size}x{self.block_size}"
            )
        if len(counts) and np.minimum.reduce(counts) < 0:
            n = int(np.argmax(counts < 0))
            raise ValueError(f"block {divmod(n, cols)} has {counts[n]} atoms")
        if np.add.reduce(counts) != len(flats) or len(flats) != len(coeffs):
            raise ValueError(f"{counts.sum()} atoms counted, {len(flats)} flats and {len(coeffs)} coefficients given")
        if len(flats) and (np.minimum.reduce(flats) < 0 or int(np.maximum.reduce(flats)) >= n_base * n_base):
            t = int(np.argmax((flats < 0) | (flats >= n_base * n_base)))
            n = _block_of(self._ends, t)
            raise ValueError(f"block {divmod(n, cols)} holds flat address {flats[t]}, outside [0, {n_base * n_base})")

    @property
    def grid(self) -> tuple[int, int]:
        return (self.height // self.block_size, self.width // self.block_size)

    @cached_property
    def _ends(self) -> np.ndarray:
        """Where each block's atoms end in the columns; summed on first use."""
        return np.cumsum(self.counts)

    @property
    def blocks(self) -> "_Blocks":
        """Read-only view of every block as a :class:`SparseBlock` of
        ``((i, j), coefficient)`` entries, Python ints and floats, each built
        when it is read."""
        return _Blocks(self)

    def _header(self) -> tuple:
        return (self.width, self.height, self.block_size, self.kind, self.n_base, self.target_psnr)

    def __eq__(self, other):
        if not isinstance(other, EncodedImage):
            return NotImplemented
        # nan equals nan here, so that every image equals itself
        return (
            self._header()[:-1] == other._header()[:-1]
            and np.array_equal(self.target_psnr, other.target_psnr, equal_nan=True)
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.flats, other.flats)
            and np.array_equal(self.coeffs, other.coeffs, equal_nan=True)
        )

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(("width", "height", "block_size", "kind", "n_base", "target_psnr"), self._header())
        )
        return f"EncodedImage({fields}, <{len(self.counts)} blocks of {len(self.flats)} atoms>)"


class _Blocks(Sequence):
    """The blocks of an :class:`EncodedImage`, each built as a :class:`SparseBlock` when read."""

    def __init__(self, enc: EncodedImage):
        self._enc = enc

    def __len__(self) -> int:
        return len(self._enc.counts)

    def __getitem__(self, n: int) -> SparseBlock:
        enc = self._enc
        n = operator.index(n)  # integers only: a one-block slice must not read as that block
        end = int(enc._ends[n])
        start = end - int(enc.counts[n])
        flats, coeffs = enc.flats[start:end].tolist(), enc.coeffs[start:end].tolist()
        return SparseBlock([(divmod(f, enc.n_base), c) for f, c in zip(flats, coeffs)])


def _block_of(ends: np.ndarray, t: int) -> int:
    """The block that holds atom ``t`` of the columns, given where each block ends."""
    return int(np.searchsorted(ends, t, side="right"))


@dataclass
class SparsityReport:
    """Sparsity accounting for one encoded image."""

    image: str
    dictionary: str
    total_atoms: int
    pixel_count: int
    target_psnr: float
    achieved_psnr: float
    block_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def compression_ratio(self) -> float:
        if self.total_atoms == 0:
            return math.inf
        return self.pixel_count / self.total_atoms


def to_blocks(image: np.ndarray, L: int) -> np.ndarray:
    """View of ``image`` as its ``(rows, cols, L, L)`` grid of blocks."""
    h, w = image.shape
    if h % L or w % L:
        raise ValueError(f"image {w}x{h} is not divisible into {L}x{L} blocks")
    return image.reshape(h // L, L, w // L, L).swapaxes(1, 2)


def from_blocks(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_blocks`."""
    rows, cols, L, _ = blocks.shape
    return blocks.swapaxes(1, 2).reshape(rows * L, cols * L)


def encode(
    img: ImageGray8,
    dict2d: Dictionary2D,
    target_db: float,
    *,
    image_name: str = "",
    trace: list | None = None,
) -> tuple[EncodedImage, SparsityReport]:
    """Approximate every block of ``img`` to the per-block SSE threshold.

    Returns the encoded image and its sparsity report. Each block gets the
    expansion ``pursue(block[None], ...)`` gives it alone. ``trace``
    collects :func:`~sparseimg.pursuit.pursue`'s rows, ``(block_index, k,
    (i, j), abs_corr, sse)``, ordered by block and then by ``k``. A block
    that cannot meet the threshold raises
    :class:`~sparseimg.pursuit.PursuitExhaustedError` naming the block.
    """
    L = dict2d.base.block_len
    grid = to_blocks(img.as_float(), L)
    threshold = psnr_to_block_sse(target_db, L)
    rule = StoppingRule(sse_threshold=threshold)  # no atom_cap: each block holds at most L * L atoms
    try:
        counts, flats, coeffs, sse = pursue(grid.reshape(-1, L, L), dict2d, rule, trace=trace)
    except PursuitExhaustedError as exc:
        raise PursuitExhaustedError(f"block {divmod(exc.index, grid.shape[1])}: {exc}", index=exc.index) from exc
    # a block holding all L * L atoms may miss; pursue retires it as met at sse <= threshold
    missed = np.flatnonzero(sse > threshold)
    if len(missed):
        n = int(missed[0])
        raise PursuitExhaustedError(
            f"block {divmod(n, grid.shape[1])}: residual SSE {sse[n]:.6g} above threshold "
            f"{threshold:.6g} with {counts[n]} atoms", index=n)

    enc = EncodedImage(
        img.width, img.height, L, dict2d.base.kind, dict2d.n_base, float(target_db), counts, flats, coeffs
    )
    report = SparsityReport(
        image=image_name,
        dictionary=dict2d.base.kind.value,
        total_atoms=int(counts.sum()),
        pixel_count=img.width * img.height,
        target_psnr=float(target_db),
        # summed as squared norms: the SSEs differ from them by an ulp here and there, and so would the PSNR
        achieved_psnr=_mse_to_psnr(sum(norm**2 for norm in np.sqrt(sse).tolist()) / (img.width * img.height)),
        block_histogram=dict(Counter(counts.tolist())),
    )
    return enc, report


def decode(enc: EncodedImage, dict2d: Dictionary2D) -> np.ndarray:
    """Superpose every block's atoms; returns a real-valued image.

    The blocks are taken in order of atom count, in runs of at most
    RUN_FLOATS floats: one :meth:`~Dictionary2D.factors` gather per run, one
    product per atom count into a stack of blocks, and one write of the
    stack into the image. Each block is ``synthesize`` of its own atoms,
    bit for bit. Use :func:`clamp_to_u8` for an 8-bit export; PSNR is
    evaluated on the real-valued output.
    """
    base = dict2d.base
    if (enc.kind, enc.n_base, enc.block_size) != (base.kind, dict2d.n_base, base.block_len):
        raise DictionaryMismatchError(
            f"container expects {enc.kind.value} with {enc.n_base} base atoms at block "
            f"{enc.block_size}, dictionary is {base.kind.value} with {dict2d.n_base} at block {base.block_len}"
        )
    L, n_cols = enc.block_size, enc.grid[1]
    counts = enc.counts
    order = counts.argsort(kind="stable")  # the blocks by atom count
    atoms = counts.repeat(counts).argsort(kind="stable")  # their atoms, in that order
    rows, cols = divmod(order, n_cols)
    # each distinct atom count, rising, with its number of blocks
    groups = [(n, k) for k, n in enumerate(np.bincount(counts).tolist()) if n]
    out = np.empty((enc.height, enc.width))  # every block is in one run, so every pixel is written
    blocks = to_blocks(out, L)
    a = s = 0  # the run's first block in that order, and its first atom
    for run in _runs(groups, L):
        b, e = a + sum(n for n, _ in run), s + sum(n * k for n, k in run)
        run_atoms = atoms[s:e]
        left, right = dict2d.factors(enc.flats[run_atoms], enc.coeffs[run_atoms])
        stack = np.empty((b - a, L, L))
        # One product per atom count, each block at its own: BLAS does not
        # promise that a sum padded with zero terms rounds as the sum does.
        i = t = 0  # where the piece's blocks start in the stack, and its atoms in the factors
        for n, k in run:
            u = t + n * k
            np.matmul(left[t:u].reshape(n, k, L).swapaxes(1, 2), right[t:u].reshape(n, k, L), out=stack[i : i + n])
            i, t = i + n, u
        blocks[rows[a:b], cols[a:b]] = stack
        a, s = b, e
    return out


def _runs(groups, L: int):
    """Split ``(blocks, atom count)`` groups, in decode order, into runs of
    pieces of the same form, each run within RUN_FLOATS floats of factors
    and products (a block alone may exceed it)."""
    run, need = [], 0
    for n, k in groups:
        per = L * (2 * k + L)  # a block's two factors and its product
        while n:
            if run and need + per > RUN_FLOATS:
                yield run
                run, need = [], 0
            m = min(n, max(1, (RUN_FLOATS - need) // per))
            run.append((m, k))
            need += m * per
            n -= m
    if run:
        yield run


def serialize(enc: EncodedImage) -> bytes:
    if enc.n_base > MAX_N_BASE:
        raise ValueError(f"n_base {enc.n_base} exceeds {MAX_N_BASE}: addresses would overflow u32")
    header = _HEADER.pack(
        MAGIC, VERSION, enc.width, enc.height, enc.block_size, enc.kind.wire_code, enc.n_base, enc.target_psnr
    )
    counts, flats, coeffs, ends = enc.counts, enc.flats, enc.coeffs, enc._ends
    # The first fault in stream order: a block's count comes before its entries.
    full = np.flatnonzero(counts > MAX_ENTRIES)
    bad = np.flatnonzero(~(np.abs(coeffs) <= MAX_COEFF))
    if len(full) and (not len(bad) or full[0] <= _block_of(ends, int(bad[0]))):
        n = int(full[0])
        raise ValueError(
            f"block {divmod(n, enc.grid[1])} holds {counts[n]} atoms; a container block holds at most {MAX_ENTRIES}"
        )
    if len(bad):
        t = int(bad[0])
        block = divmod(_block_of(ends, t), enc.grid[1])
        raise ValueError(f"block {block} holds coefficient {float(coeffs[t])}, outside +-{MAX_COEFF:g}")

    entries = np.empty(len(flats), dtype=_ENTRY)
    entries["flat"], entries["coeff"] = flats, coeffs
    # each block's count goes in front of its first entry
    at = (_ENTRY.itemsize * (ends - counts)).repeat(_COUNT.itemsize)
    return header + np.insert(entries.view(np.uint8), at, counts.astype(_COUNT).view(np.uint8)).tobytes()


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

    # Walk the counts, up to the first piece the data cuts short, and keep
    # each block's run of entries; a fault there is raised only if every
    # entry before it is good.
    size, pos, counts, runs, fault = len(data), _HEADER.size, [], [], None
    entry = _ENTRY.itemsize  # a local, as the walk reads it for every block
    for _ in range(n_blocks):
        if pos + 2 > size:
            fault = ContainerError("block count truncated", pos)
            break
        count = data[pos] | data[pos + 1] << 8  # the u16 count, little-endian
        pos += 2
        end = pos + count * entry
        if end > size:
            count = (size - pos) // entry
            end = pos + count * entry
            fault = ContainerError("entry truncated", end)
        counts.append(count)
        runs.append(data[pos:end])
        pos = end
        if fault is not None:
            break
    else:
        if pos != size:
            fault = ContainerError(f"{size - pos} trailing bytes", pos)
    counts = np.array(counts, dtype=np.intp)
    entries = np.frombuffer(b"".join(runs), _ENTRY)
    del runs  # held to the end, the runs raised the peak on a mixed 512² container by a third
    # the constructor copies the strided coefficients into a column of its own
    flats, coeffs = entries["flat"].astype(np.intp), entries["coeff"]
    # One reduction per column: a nan maximum fails the <=, as a nan entry
    # does. The scan for the first bad entry runs only when one fails.
    if len(flats) and not (
        np.maximum.reduce(flats) < n_base * n_base and np.maximum.reduce(np.abs(coeffs)) <= MAX_COEFF
    ):
        bad = np.flatnonzero((flats >= n_base * n_base) | ~(np.abs(coeffs) <= MAX_COEFF))
        t = int(bad[0])
        at = _HEADER.size + _COUNT.itemsize * (_block_of(np.cumsum(counts), t) + 1) + _ENTRY.itemsize * t
        if flats[t] >= n_base * n_base:
            raise ContainerError(f"atom address {flats[t]} out of range", at)
        raise ContainerError(f"coefficient {float(coeffs[t])} out of range", at + _ENTRY.fields["coeff"][1])
    if fault is not None:
        raise fault
    return EncodedImage(width, height, block, kind, n_base, target, counts, flats, coeffs)


def write_sic(path, enc: EncodedImage) -> None:
    Path(path).write_bytes(serialize(enc))


def read_sic(path) -> EncodedImage:
    return deserialize(Path(path).read_bytes())
