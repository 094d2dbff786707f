"""Mixed discrete-cosine / B-spline dictionary construction.

The 1D dictionary for a block of side ``L`` concatenates a redundancy-2
cosine dictionary (``2L`` atoms) with three spline sub-dictionaries. Each
spline sub-dictionary is generated by sampling a dilated B-spline prototype
at the integer points inside its support and translating the samples one
position at a time. Translates reaching past the block boundary are cut off
and renormalized, so a prototype with ``s`` nonzero samples contributes
``L + s - 1`` atoms. For ``L = 16`` this gives 86 atoms in the linear
variant and 98 in the cubic one, a redundancy of roughly five.

2D atoms are rank-one tensor products of two 1D atoms and are never stored
densely: the correlation of every 2D atom with an ``L x L`` block ``R`` is
obtained separably as ``U^T R U`` where the columns of ``U`` are the 1D
atoms, inner products between 2D atoms as products of entries of the 1D Gram
matrix ``G1 = U^T U``, and a sum of 2D atoms as ``U_I diag(c) U_J^T``.

Cutting translates at the block boundary makes some 1D atoms equal: the
single-sample translates of every dilation are the same unit vector, for
example. Every atom keeps its address, but each group of equal atoms has one
canonical member, its smallest index, and pursuit selects only 2D atoms
whose two factors are both canonical.

Dictionaries are immutable after construction (their arrays are marked
read-only).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

SUPPORTED_ORDERS = (2, 4)
DILATIONS = (1, 2, 3)

# Squared distance below which two 1D atoms count as equal. Computed from the
# Gram matrix, the squared distance of equal atoms is rounding, at most
# 2.2e-16 for L = 5..255; distinct atoms are at least 2.2e-3 apart.
TWIN_TOL = 1e-9


class DictionaryKind(str, enum.Enum):
    """Identifies which spline family is merged with the cosine atoms."""

    DCT2_LINEAR = "dct2_linear"
    DCT2_CUBIC = "dct2_cubic"

    @property
    def spline_order(self) -> int:
        return 2 if self is DictionaryKind.DCT2_LINEAR else 4

    @property
    def wire_code(self) -> int:
        return 1 if self is DictionaryKind.DCT2_LINEAR else 2

    @classmethod
    def from_wire_code(cls, code: int) -> "DictionaryKind":
        kind = _KIND_OF_WIRE_CODE.get(code)
        if kind is None:
            raise ValueError(f"unknown dictionary code {code}")
        return kind


_KIND_OF_WIRE_CODE = {kind.wire_code: kind for kind in DictionaryKind}


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_order(m: int) -> None:
    if m not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported spline order {m}: supported orders are 2 (linear) and 4 (cubic)")


def eval_bspline(m: int, x: float) -> float:
    """Evaluate the cardinal B-spline of order ``m`` at ``x``.

    Uses the truncated-power form
    ``sum_i (-1)^i C(m, i) (x - i)_+^(m-1) / (m-1)!``, which is supported on
    ``(0, m)`` and peaks at ``x = m/2``. Only the linear (``m = 2``, the hat)
    and cubic (``m = 4``) orders are supported.
    """
    _check_order(m)
    if not math.isfinite(x):
        raise ValueError(f"spline argument must be finite, got {x}")
    if x <= 0.0 or x >= m:
        return 0.0
    acc = 0.0
    for i in range(m + 1):
        t = x - i
        if t > 0.0:
            acc += (-1) ** i * math.comb(m, i) * t ** (m - 1)
    return acc / math.factorial(m - 1)


@dataclass(frozen=True)
class Prototype:
    """Nonzero integer-point samples of a dilated B-spline.

    ``values[k]`` is the spline of order ``order`` evaluated at
    ``(k + 1) / dilation``; the samples are symmetric, strictly positive and
    ``m * dilation - 1`` of them are nonzero. Prototypes compare and hash on
    ``(order, dilation)``, which determine the samples.
    """

    values: np.ndarray = field(compare=False)
    order: int
    dilation: int

    @property
    def support(self) -> int:
        return len(self.values)


def sample_prototype(m: int, dilation: int) -> Prototype:
    """Sample ``x -> B_m(x / dilation)`` at the integer points of its support.

    ``dilation`` must be 1, 2 or 3; each family uses exactly these three
    dilations, which produce supports 1/3/5 (linear) and 3/7/11 (cubic).
    """
    _check_order(m)
    if dilation not in DILATIONS:
        raise ValueError(
            f"unsupported dilation {dilation}: each spline family uses dilations {DILATIONS}"
        )
    values = np.array(
        [eval_bspline(m, k / dilation) for k in range(1, m * dilation)], dtype=np.float64
    )
    return Prototype(values=_readonly(values), order=m, dilation=dilation)


def build_spline_subdict(proto: Prototype, L: int) -> np.ndarray:
    """Translate ``proto`` one sample at a time across a length-``L`` block.

    Every translate whose nonzero samples intersect the block is kept; samples
    falling outside are cut off and the remainder is renormalized to unit
    norm. Returns the ``L + support - 1`` atoms, by increasing translation,
    as the columns of a read-only ``L x (L + support - 1)`` array; atom ``t``
    is nonzero exactly on ``[max(0, t - support + 1), min(L, t + 1))``.
    """
    s = proto.support
    if L < s:
        raise ValueError(f"block length {L} is smaller than the prototype support {s}")
    atoms = np.zeros((L + s - 1, L), dtype=np.float64)
    for row, t in zip(atoms, range(1 - s, L)):
        lo, hi = max(0, t), min(L, t + s)
        row[lo:hi] = proto.values[lo - t : hi - t]
        row /= np.linalg.norm(row)
    return _readonly(atoms.T)


def build_cosine_dict(L: int) -> np.ndarray:
    """Build the redundancy-2 cosine dictionary of ``2L`` dense atoms.

    Atom ``i`` (0-based) has entries ``cos(pi * (2j - 1) * i / (4L))`` for
    ``j = 1..L``, rescaled to unit Euclidean norm; atom 0 is the constant
    vector. The odd-frequency half coincides with the orthonormal DCT-II
    basis. Returns the atoms as the columns of a read-only ``L x 2L`` array.
    """
    if L < 1:
        raise ValueError(f"block length must be positive, got {L}")
    j = np.arange(1, L + 1, dtype=np.float64)
    atoms = np.empty((2 * L, L), dtype=np.float64)
    # one row at a time: a norm over a whole axis rounds some atoms differently
    for idx, row in enumerate(atoms):
        row[:] = np.cos(np.pi * (2.0 * j - 1.0) * idx / (4.0 * L))
        row /= np.linalg.norm(row)
    return _readonly(atoms.T)


@dataclass(frozen=True)
class Dictionary1D:
    """Ordered 1D dictionary: cosine atoms first, then spline sub-dictionaries
    by increasing support, each by increasing translation.

    ``matrix`` holds the atoms as columns (``L x n_atoms``) for separable
    correlation; ``gram`` is ``matrix^T matrix``. ``canonical[a]`` is the
    smallest index of an atom equal to atom ``a`` (see ``TWIN_TOL``), so it
    is ``a`` itself for every atom without a lower twin. The matrix is a
    function of ``kind`` and ``block_len``, so dictionaries compare and hash
    on those two.
    """

    kind: DictionaryKind
    block_len: int
    matrix: np.ndarray = field(compare=False)
    gram: np.ndarray = field(init=False, repr=False, compare=False)
    canonical: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gram = self.matrix.T @ self.matrix
        norms = np.diag(gram)
        equal = norms[:, None] + norms[None, :] - 2.0 * gram <= TWIN_TOL
        object.__setattr__(self, "gram", _readonly(gram))
        object.__setattr__(self, "canonical", _readonly(np.argmax(equal, axis=1)))

    def __len__(self) -> int:
        return self.matrix.shape[1]

    @property
    def redundancy(self) -> float:
        return len(self) / self.block_len


def assemble_dictionary(kind: DictionaryKind, L: int) -> Dictionary1D:
    """Assemble the full 1D dictionary for ``kind`` at block length ``L``."""
    kind = DictionaryKind(kind)
    m = kind.spline_order
    # The widest prototype is built first, so a block too short for the
    # family is rejected with the support it would need.
    splines = [build_spline_subdict(sample_prototype(m, d), L) for d in reversed(DILATIONS)]
    # row-major, as the products over the matrix are rounded for that layout
    matrix = np.ascontiguousarray(np.hstack([build_cosine_dict(L), *reversed(splines)]))
    return Dictionary1D(kind=kind, block_len=L, matrix=_readonly(matrix))


class Dictionary2D:
    """Separable 2D dictionary over the tensor square of a 1D dictionary.

    The 2D atom at address ``(i, j)`` is the outer product ``u_i v_j^T`` of
    two 1D atoms; it has unit Frobenius norm. Atoms are addressed either by
    the pair ``(i, j)`` or by the row-major flat index ``i * n + j``.

    ``candidates`` lists, in increasing order, the flat indices that pursuit
    searches: the atoms whose two factors are both canonical. Pursuit never
    selects the others, each equal to an atom with a smaller address: with
    exact ties between such twins the argmax would be settled by rounding.

    The pursuit methods (``correlate``, ``analyze``, ``gram``,
    ``synthesize`` and its ``factors``) work on stacks of signals or atom
    lists, one per leading index, and compute each entry of the stack the
    same way whatever the stack holds. ``correlate`` returns a new array, which pursuit
    overwrites.
    """

    def __init__(self, base: Dictionary1D):
        self.base = base
        self.n_base = n = len(base)
        canonical = np.flatnonzero(base.canonical == np.arange(n))
        self.candidates = _readonly((canonical[:, None] * n + canonical[None, :]).ravel())
        # 1D atoms as rows, for gathers; the canonical ones as columns and rows.
        self._rows = _readonly(np.ascontiguousarray(base.matrix.T))
        self._search = _readonly(np.ascontiguousarray(base.matrix[:, canonical]))
        self._search_t = _readonly(np.ascontiguousarray(self._search.T))

    @property
    def n_atoms(self) -> int:
        return len(self.base) ** 2

    @property
    def signal_shape(self) -> tuple[int, int]:
        L = self.base.block_len
        return (L, L)

    def flat_index(self, address: tuple[int, int]) -> int:
        i, j = address
        n = self.n_base
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"atom address {address} out of range for {n} base atoms")
        return i * n + j

    def address_of(self, flat: int) -> tuple[int, int]:
        i, j = divmod(int(flat), self.n_base)
        return (i, j)

    def atom_flat(self, flat: int) -> np.ndarray:
        i, j = self.address_of(flat)
        U = self.base.matrix
        return np.outer(U[:, i], U[:, j]).ravel()

    def correlate(self, signals: np.ndarray) -> np.ndarray:
        """Inner products of the candidate atoms with each block of a
        ``(B, L, L)`` stack, as a ``(B, len(candidates))`` array:
        ``U_C^T R U_C`` over the canonical 1D atoms ``C``, row-major."""
        signals = np.asarray(signals, dtype=np.float64)
        if signals.shape[1:] != self.signal_shape:
            raise ValueError(f"expected a stack of {self.signal_shape} blocks, got {signals.shape}")
        corr = np.matmul(self._search_t, np.matmul(signals, self._search))
        return corr.reshape(len(signals), -1)

    def analyze(self, signals: np.ndarray) -> np.ndarray:
        """Inner products of every atom with each block of a ``(B, L, L)``
        stack, as a ``(B, n_atoms)`` array indexed by flat address:
        ``U^T R U``."""
        U = self.base.matrix
        return np.matmul(np.matmul(U.T, signals), U).reshape(len(signals), -1)

    def gram(self, flats: np.ndarray, flat) -> np.ndarray:
        """Inner products of atom ``flat`` with the atoms ``flats`` (along the
        last axis, one ``flat`` per leading index): ``G1[i, I] * G1[j, J]``."""
        I, J = np.divmod(flats, self.n_base)
        i, j = np.divmod(np.asarray(flat)[..., None], self.n_base)
        G = self.base.gram
        return G[i, I] * G[j, J]

    def factors(self, flats: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The two factors of :meth:`synthesize`, ``(diag(c) U_I^T, U_J^T)``,
        as new ``(..., k, L)`` stacks: row ``t`` of the left holds the first
        1D atom of ``flats[..., t]`` times ``coeffs[..., t]``, and row ``t``
        of the right its second 1D atom."""
        I, J = np.divmod(flats, self.n_base)
        left = self._rows.take(I, axis=0)
        left *= coeffs[..., None]
        return left, self._rows.take(J, axis=0)

    def synthesize(self, flats: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Sum of ``coeffs[..., t]`` times atom ``flats[..., t]``, one block per
        leading index: ``U_I diag(c) U_J^T``."""
        left, right = self.factors(flats, coeffs)
        return np.matmul(left.swapaxes(-1, -2), right)


def correlate_all(dict2d: Dictionary2D, block: np.ndarray) -> np.ndarray:
    """Separable correlation of ``block`` against every 2D atom, as an
    ``n x n`` array: entry ``(i, j)`` is ``u_i^T block u_j``, and the
    row-major flattening matches :meth:`Dictionary2D.flat_index`."""
    block = np.asarray(block, dtype=np.float64)
    if block.shape != dict2d.signal_shape:
        raise ValueError(f"expected a {dict2d.signal_shape} block, got {block.shape}")
    return dict2d.analyze(block[None]).reshape(dict2d.n_base, dict2d.n_base)


class MatrixDictionary:
    """Plain column dictionary over 1D signals, mainly for small problems.

    Pursuit calls ``candidates``, ``signal_shape``, ``correlate``, ``analyze``,
    ``gram``, ``synthesize``, ``flat_index``, ``address_of`` and ``atom_flat``;
    addresses are integers. Every atom is a candidate: atoms need not have
    unit norm, and equal columns are not merged, so pursuit masks a repeat.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("expected a (dim, n_atoms) matrix of atom columns")
        if matrix.shape[1] == 0:
            raise ValueError("the matrix has no atom columns")
        self.matrix = matrix
        self._rows = np.ascontiguousarray(matrix.T)
        self.candidates = _readonly(np.arange(matrix.shape[1]))

    @property
    def n_atoms(self) -> int:
        return self.matrix.shape[1]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def signal_shape(self) -> tuple[int]:
        return (self.dim,)

    def flat_index(self, address: int) -> int:
        idx = int(address)
        if not 0 <= idx < self.n_atoms:
            raise IndexError(f"atom index {address} out of range for {self.n_atoms} atoms")
        return idx

    def address_of(self, flat: int) -> int:
        return int(flat)

    def atom_flat(self, flat: int) -> np.ndarray:
        return self.matrix[:, int(flat)].copy()

    def correlate(self, signals: np.ndarray) -> np.ndarray:
        """``M^T r`` for each signal of a ``(B, dim)`` stack: every atom is a candidate."""
        signals = np.asarray(signals, dtype=np.float64)
        if signals.shape[1:] != self.signal_shape:
            raise ValueError(f"expected a stack of {self.signal_shape} signals, got {signals.shape}")
        return self.analyze(signals)

    def analyze(self, signals: np.ndarray) -> np.ndarray:
        """``M^T r`` for each signal of a ``(B, dim)`` stack."""
        return np.matmul(signals[:, None, :], self.matrix)[:, 0, :]

    def gram(self, flats: np.ndarray, flat) -> np.ndarray:
        """Inner products of atom ``flat`` with the atoms ``flats``: ``M[:, I]^T m``."""
        return np.matmul(self._rows[flats], self._rows[flat][..., None])[..., 0]

    def synthesize(self, flats: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Sum of ``coeffs[..., t]`` times atom ``flats[..., t]``: ``M[:, I] c``."""
        return np.matmul(coeffs[..., None, :], self._rows[flats])[..., 0, :]
