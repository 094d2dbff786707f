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

import csv
import io
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dictionary import Dictionary2D, DictionaryKind
from .pursuit import PursuitExhaustedError, SparseBlock, StoppingRule, pursue

MAGIC = b"SIC1"
VERSION = 1
_HEADER = struct.Struct("<4sHIIHBId")
_COUNT = struct.Struct("<H")
_ENTRY = struct.Struct("<Id")

# Each block stores its entry count as a u16, and a block of side L keeps up
# to L * L atoms, so L may not exceed isqrt(MAX_ENTRIES).
MAX_ENTRIES = 65535
MAX_BLOCK = math.isqrt(MAX_ENTRIES)
# A block sums at most MAX_ENTRIES atoms whose values lie in [-1, 1], so no
# decode of coefficients within +-MAX_COEFF overflows (or meets a nan).
MAX_COEFF = 1e300

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

    @classmethod
    def from_array(cls, a: np.ndarray) -> "ImageGray8":
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError(f"expected a 2D grayscale array, got shape {a.shape}")
        if a.dtype != np.uint8:
            if np.issubdtype(a.dtype, np.integer) and a.min() >= 0 and a.max() <= 255:
                a = a.astype(np.uint8)
            else:
                raise ValueError(f"expected 8-bit pixels, got dtype {a.dtype}")
        return cls(width=a.shape[1], height=a.shape[0], pixels=a)

    def as_float(self) -> np.ndarray:
        return self.pixels.astype(np.float64)


def read_pgm(path) -> ImageGray8:
    """Read a binary (P5) PGM file with maxval 255."""
    data = Path(path).read_bytes()
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(data):
            c = data[pos : pos + 1]
            if c == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif c.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PGM header")
        return data[start:pos]

    magic = token()
    if magic != b"P5":
        raise ValueError(f"not a binary PGM (P5) file, magic {magic!r}")
    width, height, maxval = (int(token()) for _ in range(3))
    if maxval != 255:
        raise ValueError(f"only 8-bit PGM supported, maxval {maxval}")
    pos += 1  # single whitespace after maxval
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise ValueError(f"raster truncated ({len(raster)} of {width * height} bytes)")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()
    return ImageGray8(width=width, height=height, pixels=pixels)


def write_pgm(path, image) -> None:
    """Write ``image`` (ImageGray8 or uint8 array) as binary PGM."""
    if isinstance(image, ImageGray8):
        pixels = image.pixels
    else:
        pixels = np.asarray(image, dtype=np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(pixels.tobytes())


def clamp_to_u8(image: np.ndarray) -> np.ndarray:
    """Round and clip a real-valued image to 8-bit pixels."""
    return np.clip(np.rint(image), 0, 255).astype(np.uint8)


def psnr(original, approx) -> float:
    """Peak signal-to-noise ratio in dB against a peak of 255."""
    a = original.as_float() if isinstance(original, ImageGray8) else np.asarray(original, float)
    b = approx.as_float() if isinstance(approx, ImageGray8) else np.asarray(approx, float)
    if a.shape != b.shape:
        raise ValueError(f"image dimensions differ: {a.shape} vs {b.shape}")
    return _mse_to_psnr(float(np.mean((a - b) ** 2)))


def _mse_to_psnr(mse: float) -> float:
    return math.inf if mse == 0.0 else 10.0 * math.log10(PEAK**2 / mse)


def psnr_to_block_sse(target_db: float, L: int) -> float:
    """Per-block residual SSE guaranteeing an image PSNR of ``target_db``.

    The image MSE is the mean of the block MSEs, so capping every block's SSE
    at ``L^2 * 255^2 * 10^(-target/10)`` caps the image MSE at the target
    level.
    """
    if not target_db > 0:
        raise ValueError(f"PSNR target must be positive, got {target_db}")
    return L * L * PEAK**2 * 10.0 ** (-target_db / 10.0)


@dataclass
class EncodedImage:
    """Header plus the sparse expansion of each block of :attr:`grid`, row-major."""

    width: int
    height: int
    block_size: int
    kind: DictionaryKind
    n_base: int
    target_psnr: float
    blocks: list[SparseBlock] = field(default_factory=list)

    def __post_init__(self) -> None:
        rows, cols = self.grid
        if len(self.blocks) != rows * cols:
            raise ValueError(
                f"{len(self.blocks)} blocks for a {self.width}x{self.height} image, "
                f"which has {rows * cols} blocks of {self.block_size}x{self.block_size}"
            )

    @property
    def grid(self) -> tuple[int, int]:
        return (self.height // self.block_size, self.width // self.block_size)


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


REPORT_COLUMNS = ("image", "dictionary", "atoms", "cr", "psnr_target", "psnr_achieved")


def report_row(report: SparsityReport) -> list[str]:
    return [
        report.image,
        report.dictionary,
        str(report.total_atoms),
        repr(round(report.compression_ratio, 6)),
        repr(float(report.target_psnr)),
        repr(round(report.achieved_psnr, 6)),
    ]


def append_report(path, report: SparsityReport) -> None:
    """Append one CSV row, creating the file with a header when needed."""
    path = Path(path)
    fresh = not path.exists() or path.stat().st_size == 0
    with open(path, "a", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        if fresh:
            writer.writerow(REPORT_COLUMNS)
        writer.writerow(report_row(report))


def read_report(path) -> list[dict[str, str]]:
    """Rows of a report CSV; each must have every column of REPORT_COLUMNS."""
    with open(path, newline="") as f:
        try:
            rows = list(csv.DictReader(f))
        except csv.Error as exc:
            raise ValueError(f"not a sparsity report CSV: {exc}") from exc
    for row in rows:
        if any(row.get(column) is None for column in REPORT_COLUMNS):
            raise ValueError("not a sparsity report CSV")
    return rows


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
    expansion :func:`~sparseimg.pursuit.run_omp` gives it alone. ``trace``
    collects ``(block_index, k, i, j, abs_corr, sse)`` rows, ordered by block
    and then by ``k``.
    """
    L = dict2d.base.block_len
    grid = to_blocks(img.as_float(), L)
    threshold = psnr_to_block_sse(target_db, L)
    rule = StoppingRule(mode="both", sse_threshold=threshold, atom_cap=L * L)
    steps: list | None = [] if trace is not None else None
    try:
        results = pursue(grid.reshape(-1, L, L), dict2d, rule, trace=steps)
    except PursuitExhaustedError as exc:
        by, bx = divmod(exc.index, grid.shape[1])
        raise PursuitExhaustedError(f"block ({by}, {bx}): {exc}", index=exc.index) from exc

    enc = EncodedImage(
        width=img.width,
        height=img.height,
        block_size=L,
        kind=dict2d.base.kind,
        n_base=dict2d.n_base,
        target_psnr=float(target_db),
        blocks=[sparse for sparse, _ in results],
    )
    if trace is not None:
        trace.extend((index, k, i, j, corr, sse) for index, k, (i, j), corr, sse in steps)

    total_sse = sum(norm**2 for _, norm in results)
    report = SparsityReport(
        image=image_name,
        dictionary=dict2d.base.kind.value,
        total_atoms=sum(len(sparse) for sparse, _ in results),
        pixel_count=img.width * img.height,
        target_psnr=float(target_db),
        achieved_psnr=_mse_to_psnr(total_sse / (img.width * img.height)),
        block_histogram=dict(Counter(len(sparse) for sparse, _ in results)),
    )
    return enc, report


def decode(enc: EncodedImage, dict2d: Dictionary2D) -> np.ndarray:
    """Superpose every block's atoms; returns a real-valued image.

    Use :func:`clamp_to_u8` for an 8-bit export; PSNR is evaluated on the
    real-valued output.
    """
    if enc.kind is not dict2d.base.kind:
        raise DictionaryMismatchError(
            f"container was encoded with {enc.kind.value}, got {dict2d.base.kind.value}"
        )
    if enc.n_base != dict2d.n_base or enc.block_size != dict2d.base.block_len:
        raise DictionaryMismatchError(
            f"container expects {enc.n_base} base atoms at block {enc.block_size}, "
            f"dictionary has {dict2d.n_base} at block {dict2d.base.block_len}"
        )
    out = np.zeros((enc.height, enc.width))
    grid = to_blocks(out, enc.block_size)
    for n, sparse in enumerate(enc.blocks):
        grid[divmod(n, grid.shape[1])] = dict2d.reconstruct(sparse.entries)
    return out


def serialize(enc: EncodedImage) -> bytes:
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
    kind = DictionaryKind.from_wire_code(code)
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
        blocks=blocks,
    )


def write_sic(path, enc: EncodedImage) -> None:
    Path(path).write_bytes(serialize(enc))


def read_sic(path) -> EncodedImage:
    return deserialize(Path(path).read_bytes())
