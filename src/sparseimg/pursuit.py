"""Orthogonal Matching Pursuit over a separable (or plain) dictionary.

Each iteration selects the atom with the largest absolute correlation
against the current residual and projects the signal onto the span of the
selected atoms. The projection is kept in the Gram domain (Batch-OMP;
Rubinstein, Zibulevsky & Elad, Technion CS-2008-08): with ``A`` the selected
atoms and ``L L^T = A^T A`` the Cholesky factorization of their Gram
matrix, the state holds the inverse factor ``L^-1`` and ``z = L^-1 A^T f``.
Accepting atom ``v`` with Gram row ``g = A^T v`` appends one row to each:

    w = L^-1 g,   d^2 = <v, v> - <w, w>,
    L^-1 gets the row [-w^T L^-1 / d, 1 / d],   z_k = (<v, f> - <w, z>) / d.

The coefficients are ``c = L^-T z`` and the residual ``f - A c`` comes from
the dictionary's synthesis, so the state grows with the number of accepted
atoms and the dictionary supplies only correlations, Gram rows and sums of
atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# A candidate atom is declared linearly dependent on the selected span, and
# masked out, when its squared distance d^2 from the span is below DEP_TOL
# times its squared norm. d^2 is a difference of two numbers near <v, v>, so
# its absolute error is about k * eps * <v, v>: an atom repeating a selected
# one gives d^2 of order 1e-16 <v, v>, which 1e-14 separates from atoms
# that are merely close. Redundant dictionaries make such collisions
# routine, so dependence is not an error.
DEP_TOL = 1e-14

STOP_MODES = ("target_sse", "max_atoms", "both")


class PursuitExhaustedError(RuntimeError):
    """Every dictionary atom is masked but the stopping rule is not satisfied."""


@dataclass(frozen=True)
class StoppingRule:
    """When to stop the pursuit.

    ``target_sse`` stops once the residual sum of squares drops to
    ``sse_threshold``; ``max_atoms`` stops after ``atom_cap`` accepted atoms;
    ``both`` stops at whichever comes first. The cap can never usefully
    exceed the signal dimension.
    """

    mode: str = "both"
    sse_threshold: float = 0.0
    atom_cap: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in STOP_MODES:
            raise ValueError(f"stopping mode must be one of {STOP_MODES}, got {self.mode!r}")
        if not self.sse_threshold >= 0.0:
            raise ValueError(f"sse_threshold must be nonnegative, got {self.sse_threshold}")
        if self.atom_cap is not None and self.atom_cap < 0:
            raise ValueError(f"atom_cap must be nonnegative, got {self.atom_cap}")
        if self.mode in ("max_atoms", "both") and self.atom_cap is None:
            raise ValueError(f"mode {self.mode!r} requires atom_cap")


@dataclass
class SparseBlock:
    """Sparse expansion of one signal: ``((address, coefficient), ...)``.

    Addresses are ``(i, j)`` pairs for separable 2D dictionaries and plain
    integers for matrix dictionaries; they are unique within a block.
    """

    entries: list[tuple[object, float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)


class PursuitState:
    """Mutable state of one pursuit run.

    Attributes
    ----------
    residual : ndarray
        Current projection error, shaped like the input signal.
    selected : list
        Accepted atom addresses, in selection order.
    masked : set[int]
        Flat indices excluded from selection (linearly dependent atoms).
    k : int
        Number of accepted atoms.

    At most ``capacity`` atoms (capped at the signal dimension) are
    accepted, but storage grows with the atoms actually accepted.
    """

    def __init__(self, signal: np.ndarray, capacity: int):
        signal = np.asarray(signal, dtype=np.float64)
        self.shape = signal.shape
        self.target = signal.ravel().copy()
        self.capacity = min(int(capacity), self.target.size)
        self.k = 0
        self.selected: list = []
        self.masked: set[int] = set()
        self._residual = self.target.copy()
        self._dictionary = None  # the dictionary of the accepted atoms
        self._target_corr: np.ndarray | None = None  # A^T f over every atom, flat
        # Selected flat indices, L^-1, z and c, grown by doubling.
        held = min(8, self.capacity)
        self._flat = np.zeros(held, dtype=np.intp)
        self._linv = np.zeros((held, held))
        self._z = np.zeros(held)
        self._coeffs = np.zeros(held)

    @property
    def dim(self) -> int:
        return self.target.size

    @property
    def residual(self) -> np.ndarray:
        return self._residual.reshape(self.shape)

    @property
    def residual_sse(self) -> float:
        return float(self._residual @ self._residual)

    @property
    def coefficients(self) -> np.ndarray:
        return self._coeffs[: self.k].copy()

    @property
    def orthonormal_basis(self) -> np.ndarray:
        """Orthonormal basis ``A L^-T`` of the selected span, built on request."""
        k = self.k
        if k == 0:
            return np.zeros((self.dim, 0))
        atoms = np.column_stack([self._dictionary.atom_flat(f) for f in self._flat[:k]])
        return atoms @ self._linv[:k, :k].T

    @property
    def dual_basis(self) -> np.ndarray:
        """Biorthogonal duals ``A L^-T L^-1``: ``c = B^T f``, built on request."""
        return self.orthonormal_basis @ self._linv[: self.k, : self.k]

    def _reserve(self, size: int) -> None:
        """Room for ``size`` accepted atoms."""
        held = len(self._z)
        if size <= held:
            return
        grown = min(max(size, 2 * held), self.capacity)
        linv = np.zeros((grown, grown))
        linv[:held, :held] = self._linv
        self._linv = linv
        self._flat = np.concatenate([self._flat, np.zeros(grown - held, dtype=np.intp)])
        self._z = np.concatenate([self._z, np.zeros(grown - held)])
        self._coeffs = np.concatenate([self._coeffs, np.zeros(grown - held)])


def _correlate(state: PursuitState, dictionary) -> np.ndarray:
    """Correlations of every atom with the residual. Before the first
    acceptance the residual is the signal, so they are kept as ``A^T f``."""
    corr = dictionary.correlate(state.residual)
    if state.k == 0:
        state._target_corr = corr.ravel()
    return corr


def _argmax_correlation(corr: np.ndarray, state: PursuitState, dictionary) -> tuple[int, float]:
    """Flat index of the largest ``|corr|`` among the atoms the state and the
    dictionary leave selectable; ties go to the smallest row-major index.
    Returns ``(-1, 0.0)`` if every atom is excluded."""
    mag = np.abs(corr).ravel()
    mag[dictionary.redundant] = -1.0
    mag[state._flat[: state.k]] = -1.0
    if state.masked:
        mag[list(state.masked)] = -1.0
    flat = int(mag.argmax())
    value = float(mag[flat])
    if value < 0.0:
        return -1, 0.0
    return flat, value


def _accept(state: PursuitState, dictionary, flat: int) -> bool:
    """Add atom ``flat`` to the factorization, or mask it when it depends on
    the selected span; returns whether it was accepted."""
    k = state.k
    state._reserve(k + 1)
    state._flat[k] = flat
    g = dictionary.gram(state._flat[: k + 1], flat)
    norm2 = g[k]
    linv = state._linv[:k, :k]
    w = linv @ g[:k]
    d2 = norm2 - w @ w
    if not d2 > DEP_TOL * norm2:
        state.masked.add(flat)
        return False

    if state._target_corr is None:
        state._target_corr = dictionary.correlate(state.target.reshape(state.shape)).ravel()
    d = math.sqrt(d2)
    state._linv[k, :k] = (w @ linv) / -d
    state._linv[k, k] = 1.0 / d
    z = (state._target_corr[flat] - w @ state._z[:k]) / d
    state._z[k] = z
    # c = L^-T z: the new row of L^-1 adds z times that row.
    state._coeffs[: k + 1] += z * state._linv[k, : k + 1]
    k += 1
    state.k = k
    state.selected.append(dictionary.address_of(flat))
    state._dictionary = dictionary
    synthesis = dictionary.synthesize(state._flat[:k], state._coeffs[:k])
    state._residual = state.target - synthesis.ravel()
    return True


def select_atom(state: PursuitState, dictionary) -> object:
    """Address of the candidate atom maximizing ``|<atom, residual>|``.

    Masked atoms, already-accepted atoms and the dictionary's ``redundant``
    atoms (exact twins of a smaller address) are excluded, so ties between
    equal atoms go to the smallest address. Raises
    :class:`PursuitExhaustedError` when no candidate remains. With an
    all-zero residual the correlation maximum is zero and the tie rule picks
    the smallest address.
    """
    corr = _correlate(state, dictionary)
    flat, _ = _argmax_correlation(corr, state, dictionary)
    if flat < 0:
        raise PursuitExhaustedError("all dictionary atoms are masked")
    return dictionary.address_of(flat)


def orthogonalize_and_update(state: PursuitState, dictionary, address) -> PursuitState:
    """Accept ``address`` into the selected set and refresh the expansion.

    If the atom's squared distance from the selected span is below
    ``DEP_TOL`` times its squared norm, the atom is masked and the state is
    otherwise untouched. On acceptance the inverse Cholesky factor, the
    coefficients and the residual ``f - A c`` are updated.
    """
    if address in state.selected:
        raise ValueError(f"atom {address} was already selected")
    flat = dictionary.flat_index(address)
    if state.k >= state.capacity:
        raise ValueError(f"pursuit state is full ({state.k} atoms)")
    _accept(state, dictionary, flat)
    return state


def run_omp(
    signal: np.ndarray,
    dictionary,
    rule: StoppingRule,
    trace: list | None = None,
) -> tuple[SparseBlock, float]:
    """Greedy pursuit of ``signal`` until the stopping rule fires.

    Returns the sparse expansion and the Euclidean norm of the final
    residual. When ``trace`` is a list, one ``(k, address, abs_corr, sse)``
    tuple is appended per accepted atom.

    Raises :class:`PursuitExhaustedError` only if every atom gets masked
    while the threshold is still unmet and the cap unreached. A selection
    maximum of exactly zero stops the pursuit instead, since no further
    progress is possible.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.shape != dictionary.signal_shape:
        raise ValueError(
            f"signal shape {signal.shape} does not match dictionary {dictionary.signal_shape}"
        )
    dim = signal.size

    use_threshold = rule.mode in ("target_sse", "both")
    use_cap = rule.mode in ("max_atoms", "both")
    threshold = rule.sse_threshold if use_threshold else 0.0
    cap = min(rule.atom_cap, dim) if use_cap else dim
    if use_cap and rule.atom_cap > dim:
        raise ValueError(f"atom_cap {rule.atom_cap} exceeds the signal dimension {dim}")

    state = PursuitState(signal, capacity=cap)
    while True:
        sse = state.residual_sse
        if sse <= threshold or state.k >= cap:
            break
        corr = _correlate(state, dictionary)
        flat, value = _argmax_correlation(corr, state, dictionary)
        if flat < 0:
            raise PursuitExhaustedError(
                f"all atoms masked with residual SSE {sse:.6g} above threshold {threshold:.6g}"
            )
        if value == 0.0:
            break  # residual is orthogonal to the whole dictionary
        if _accept(state, dictionary, flat) and trace is not None:
            trace.append((state.k, state.selected[-1], value, state.residual_sse))

    coeffs = state.coefficients
    block = SparseBlock(entries=[(addr, float(c)) for addr, c in zip(state.selected, coeffs)])
    return block, float(np.sqrt(state.residual_sse))
