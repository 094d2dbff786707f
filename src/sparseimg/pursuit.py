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

One loop pursues a group of signals together. Its state is row-stacked,
one row per signal. Each step first retires the rows that met the
threshold or hold the cap, then makes one attempt, accepted or masked, for
every live row, with one numpy call of each kind: correlate, first-maximum
argmax, masked max, Gram row, factor update, synthesis. Only the rows where
a second candidate lies within ``TIE_TOL`` of the maximum also compare
every candidate against that window. A row's result never depends on the
group it is pursued in: every reduction runs over dimensions fixed
by the dictionary or by the capacity, which steps through ``8, 16, 32,
...`` as the group's step count reaches it, just as it would for the row
alone (BLAS dot products change with zero padding, so a width set by the
group would not do). Retired rows are scratch, and the arrays are
compacted lazily; live rows stay below capacity, since a row holds at most
as many atoms as steps taken and a row retires when it holds the cap. A
row's attempt excludes its candidate from then on, accepted or masked, so
the candidates a row has tried are the one record of what its selection
excludes.
:func:`run_omp` and the stepwise API (:class:`PursuitState`,
:func:`select_atom`, :func:`orthogonalize_and_update`) are the same core
on a group of one.
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

# Selection takes the smallest candidate address whose |correlation| lies
# within TIE_TOL of the maximum, relative to it. Distinct atoms whose
# correlations are equal in exact arithmetic (adjacent spline translates
# over a constant region, say) differ after rounding by a few ulps, about
# 1e-15 relative. 1e-12 absorbs that; correlations that close count as a
# tie even when they are not equal in exact arithmetic.
TIE_TOL = 1e-12

# The most correlation entries a group of signals holds. A group takes at
# most GROUP_ENTRIES // len(dictionary.candidates) signals (at least one),
# and a stack is split into as few groups as that allows, whose sizes differ
# by at most one: a 512 x 512 image is 48 groups of 85-86 blocks at L = 8
# (1,600 candidates), 49 of 20-21 at L = 16 linear (6,400) and 64 of 16 at
# L = 16 cubic (8,464); a 64 x 64 tile at L = 16 is one group of 16 blocks.
# Each correlation stack of a group takes at most 1.1 MB, unless one signal
# alone has more candidates than GROUP_ENTRIES.
GROUP_ENTRIES = (1 << 17) + (1 << 13)

STOP_MODES = ("both",)

FIRST_CAPACITY = 8  # atoms a row holds before its first growth


class PursuitExhaustedError(RuntimeError):
    """Every dictionary atom is masked but the stopping rule is not satisfied.

    :func:`sparseimg.codec.encode` also raises it for a block that ends its
    pursuit with its SSE above the threshold, holding all ``L * L`` atoms.
    ``index`` is the position of the signal that exhausted in the stack
    given to :func:`pursue`.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class StoppingRule:
    """When to stop the pursuit: once the residual sum of squares is at most
    ``sse_threshold``, or once ``atom_cap`` atoms are held, where ``None``
    means the signal dimension. ``mode`` accepts only ``"both"``.
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


@dataclass
class SparseBlock:
    """Sparse expansion of one signal: ``((address, coefficient), ...)``.

    Addresses are ``(i, j)`` pairs for separable 2D dictionaries and plain
    integers for matrix dictionaries; they are unique within a block.
    """

    entries: list[tuple[object, float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)


def _capacity(steps: int, cap: int) -> int:
    """A row's capacity after ``steps`` steps: 8, 16, 32, ... above ``steps``,
    at most ``cap``. A row holds at most one atom per step, so this keeps it
    below capacity until it holds ``cap``."""
    return max(1, min(cap, max(FIRST_CAPACITY, 1 << steps.bit_length())))


def _row_sse(residual: np.ndarray) -> np.ndarray:
    """``<r, r>`` of each row, one dot product per row."""
    return np.matmul(residual[:, None, :], residual[:, :, None])[:, 0, 0]


class _Rows:
    """Row-stacked state of the signals of one group.

    Row ``r`` holds ``k[r]`` accepted atoms out of ``capacity``: their flat
    indices, the factor ``[L^-1 | z | w]`` (``w`` is scratch for the next
    acceptance), the coefficients, the residual and its SSE, and ``A^T f``
    over every atom once the row has accepted one. ``tried`` holds, one
    column per step, the candidate position each row attempted, accepted or
    masked as dependent; selection excludes them all. ``live`` is false for
    retired rows, whose slots are scratch until the next compaction drops
    them.
    """

    def __init__(self, ids: np.ndarray, target: np.ndarray, capacity: int):
        rows, K = len(ids), capacity
        self.ids = ids
        self.target = target
        self.capacity = K
        self.k = np.zeros(rows, dtype=np.intp)
        self.flats = np.zeros((rows, K), dtype=np.intp)
        self.factor = np.zeros((rows, K, K + 2))
        self.coeffs = np.zeros((rows, K))
        self.residual = target.copy()
        self.sse = _row_sse(self.residual)
        self.tried = np.zeros((rows, 0), dtype=np.intp)
        self.target_corr = None
        self.row = np.arange(rows)
        self.column = self.row[:, None]
        self.row_start = self.row * K
        self.live = np.ones(rows, dtype=bool)

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows: np.ndarray, capacity: int) -> "_Rows":
        """The rows ``rows``, moved to ``capacity`` (at least this one)."""
        K = self.capacity
        out = _Rows(self.ids[rows], self.target[rows], capacity)
        out.k = self.k[rows]
        out.residual = self.residual[rows]
        out.sse = self.sse[rows]
        out.tried = self.tried[rows]
        out.target_corr = None if self.target_corr is None else self.target_corr[rows]
        out.flats[:, :K] = self.flats[rows]
        out.factor[:, :K, :K] = self.factor[rows, :, :K]
        out.factor[:, :K, capacity] = self.factor[rows, :, K]
        out.coeffs[:, :K] = self.coeffs[rows]
        return out


def _select(rows: _Rows, dictionary) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's pick: candidate position, largest ``|corr|`` and the
    picked candidate's ``|corr|``. Tried candidates are excluded; among the
    candidates within ``TIE_TOL`` of the maximum the smallest address wins.
    A maximum of -1 means every candidate is excluded.

    Two passes over the correlations decide almost every row: an argmax
    finds the first maximum, and a max over the others, with the first
    maximum set aside, tells whether another candidate lies in the tie
    window. Only the rows where one does compare every candidate against
    the window, and take the first candidate in it."""
    n = len(rows)
    corr = dictionary.correlate(rows.residual.reshape((n,) + dictionary.signal_shape))
    mag = np.abs(corr, out=corr)  # correlate returns a fresh array each call
    mag[rows.column, rows.tried] = -1.0
    pos = mag.argmax(axis=1)
    top = mag[rows.row, pos]
    floor = top * (1.0 - TIE_TOL)
    mag[rows.row, pos] = -1.0
    picked = top.copy()
    tied = np.flatnonzero(np.maximum.reduce(mag, axis=1) >= floor)
    if len(tied):
        mag[tied, pos[tied]] = top[tied]
        pos[tied] = (mag[tied] >= floor[tied, None]).argmax(axis=1)
        picked[tied] = mag[tied, pos[tied]]
    return pos, top, picked


def _accept(rows: _Rows, dictionary, flat: np.ndarray) -> np.ndarray:
    """Add atom ``flat[r]`` to the factorization of each live row, unless it
    depends on the row's span; returns which rows accepted, and leaves ``k``
    unchanged in the others.

    Every row is computed; rows that do not accept get zero updates, which
    leave their state as it was. Retired rows are scratch; live rows stay
    below capacity. A retired row may be full, so the write slot is clipped
    to the row's own last slot, which nothing reads again."""
    K = rows.capacity
    r, k = rows.row, np.minimum(rows.k, K - 1)
    at = rows.row_start + k  # flat index of each row's slot k in a (rows, K) array
    rows.flats.put(at, flat)
    g = dictionary.gram(rows.flats, flat)
    norm2 = g.take(at)
    factor = rows.factor
    w = np.matmul(factor[:, :, :K], g[:, :, None])
    factor[:, :, K + 1] = w[:, :, 0]
    # one product gives w^T L^-1, <w, z> and <w, w>
    y = np.matmul(w.transpose(0, 2, 1), factor)[:, 0]
    d2 = norm2 - y[:, K + 1]
    accepted = rows.live & (d2 > DEP_TOL * norm2)
    inv_d = accepted / np.sqrt(np.where(accepted, d2, 1.0))
    # the new factor row: [-w^T L^-1 / d, 1 / d] and z_k in column K
    new_row = y * -inv_d[:, None]
    new_row[r, k] = inv_d
    if rows.target_corr is None:
        rows.target_corr = dictionary.analyze(rows.target.reshape((len(rows),) + dictionary.signal_shape))
    new_row[:, K] = (rows.target_corr[r, flat] - y[:, K]) * inv_d
    factor.reshape(-1, K + 2)[at] = new_row
    # c = L^-T z: the new row of L^-1 adds z times that row.
    rows.coeffs += new_row[:, K, None] * new_row[:, :K]
    rows.k += accepted
    if accepted.any():
        synthesis = dictionary.synthesize(rows.flats, rows.coeffs)
        np.subtract(rows.target, synthesis.reshape(len(rows), -1), out=rows.residual)
        rows.sse = _row_sse(rows.residual)
    return accepted


class PursuitState:
    """Mutable state of one pursuit run: a group of one row.

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

    At most ``capacity`` atoms are accepted, and storage grows with them. A
    nan or inf, or a capacity above the signal dimension, raises ValueError.
    """

    def __init__(self, signal: np.ndarray, capacity: int):
        signal = np.array(signal, dtype=np.float64)  # a copy, held as the row's target
        if not np.isfinite(signal).all():
            raise ValueError("signal holds a nan or an inf")
        if capacity > signal.size:
            raise ValueError(f"atom_cap {capacity} exceeds the signal dimension {signal.size}")
        self.shape = signal.shape
        self.capacity = int(capacity)
        self.selected: list = []
        self.masked: set[int] = set()
        self._dictionary = None  # the dictionary of the accepted atoms
        self._rows = _Rows(np.zeros(1, dtype=np.intp), signal.reshape(1, -1), _capacity(0, self.capacity))

    @property
    def k(self) -> int:
        return int(self._rows.k[0])

    @property
    def dim(self) -> int:
        return self._rows.target.shape[1]

    @property
    def residual(self) -> np.ndarray:
        return self._rows.residual[0].reshape(self.shape)

    @property
    def residual_sse(self) -> float:
        return float(self._rows.sse[0])

    @property
    def coefficients(self) -> np.ndarray:
        return self._rows.coeffs[0, : self.k].copy()

    @property
    def orthonormal_basis(self) -> np.ndarray:
        """Orthonormal basis ``A L^-T`` of the selected span, built on request."""
        k = self.k
        if k == 0:
            return np.zeros((self.dim, 0))
        atoms = np.column_stack([self._dictionary.atom_flat(f) for f in self._rows.flats[0, :k]])
        return atoms @ self._rows.factor[0, :k, :k].T

    @property
    def dual_basis(self) -> np.ndarray:
        """Biorthogonal duals ``A L^-T L^-1``: ``c = B^T f``, built on request."""
        k = self.k
        return self.orthonormal_basis @ self._rows.factor[0, :k, :k]


def select_atom(state: PursuitState, dictionary) -> object:
    """Address of the candidate atom maximizing ``|<atom, residual>|``.

    Masked atoms, already-accepted atoms and the atoms that are not
    candidates (twins of an atom with a smaller address) are excluded;
    among atoms whose correlations tie within ``TIE_TOL`` the smallest
    address wins. Raises :class:`PursuitExhaustedError` when no
    candidate remains. With an all-zero residual the correlation maximum is
    zero and the tie rule picks the smallest address.
    """
    rows = state._rows
    tried = [*rows.flats[0, : state.k], *state.masked]
    rows.tried = np.flatnonzero(np.isin(dictionary.candidates, tried))[None]
    pos, top, _ = _select(rows, dictionary)
    if top[0] < 0.0:
        raise PursuitExhaustedError("all dictionary atoms are masked")
    return dictionary.address_of(dictionary.candidates[pos[0]])


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
    rows = state._rows
    # one step per accepted or masked atom, as for a pursued row; never shrinks
    capacity = _capacity(state.k + len(state.masked), state.capacity)
    if capacity > rows.capacity:
        rows = state._rows = rows.take(rows.row, capacity)
    if _accept(rows, dictionary, np.array([flat]))[0]:
        state.selected.append(address)
        state._dictionary = dictionary
    else:
        state.masked.add(flat)
    return state


def pursue(
    signals: np.ndarray,
    dictionary,
    rule: StoppingRule,
    trace: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Greedy pursuit of each signal of a stack until the stopping rule fires.

    Returns ``(counts, flats, coeffs, sse)``: the atoms each signal holds,
    the flat indices and coefficients of every signal's atoms one signal
    after another, in selection order, and each signal's residual sum of
    squares; each signal's are what :func:`run_omp` gives it alone. Signals
    are pursued in as few consecutive groups of near-equal size as hold at
    most ``GROUP_ENTRIES // len(dictionary.candidates)`` signals each (at
    least one).
    When ``trace`` is a list, one ``(index, k, address, abs_corr, sse)``
    tuple is appended per accepted atom, ordered by signal and then by ``k``.

    Raises :class:`PursuitExhaustedError`, with the signal's ``index``, if
    every atom of a signal gets masked while its threshold is still unmet
    and its cap unreached. A selection maximum of exactly zero stops that
    signal's pursuit instead, since no further progress is possible. A
    signal with a nan or an inf raises ValueError, naming the first.
    """
    shape = dictionary.signal_shape
    signals = np.asarray(signals, dtype=np.float64)
    if signals.shape[1:] != shape:
        raise ValueError(f"signal shape {signals.shape[1:]} does not match dictionary {shape}")
    count, dim = len(signals), int(np.prod(shape))
    flat_signals = signals.reshape(count, dim)
    finite = np.isfinite(flat_signals).all(axis=1)
    if not finite.all():
        raise ValueError(f"signal {int(np.argmin(finite))} holds a nan or an inf")
    cap = dim if rule.atom_cap is None else rule.atom_cap
    if cap > dim:
        raise ValueError(f"atom_cap {cap} exceeds the signal dimension {dim}")

    group = max(1, GROUP_ENTRIES // len(dictionary.candidates))
    groups = max(1, math.ceil(count / group))
    results = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0), np.zeros(0))]
    steps: list | None = [] if trace is not None else None
    for ids in np.array_split(np.arange(count), groups):
        _pursue_group(
            _Rows(ids, flat_signals[ids], _capacity(0, cap)),
            dictionary, rule.sse_threshold, cap, results, steps,
        )

    if trace is not None and steps:
        index, k, flat, corr, sse = (np.concatenate(column) for column in zip(*steps))
        order = np.lexsort((k, index))
        for t in order.tolist():
            trace.append((int(index[t]), int(k[t]), dictionary.address_of(flat[t]), float(corr[t]), float(sse[t])))
    ids, counts, flats, coeffs, sse = (np.concatenate(column) for column in zip(*results))
    order = np.argsort(ids)
    atoms = np.argsort(np.repeat(ids, counts), kind="stable")
    return counts[order], flats[atoms], coeffs[atoms], sse[order]


def _pursue_group(rows: _Rows, dictionary, threshold: float, cap: int, results: list, steps) -> None:
    """Advance one group until every row has retired. Each step retires the
    rows that met the threshold or hold ``cap`` atoms, then makes one
    attempt for every row still live."""
    while True:
        _finish(rows, (rows.sse <= threshold) | (rows.k == cap), results)
        n_live = np.count_nonzero(rows.live)
        if not n_live:
            return
        capacity = _capacity(rows.tried.shape[1], cap)  # a step tries one candidate per row
        # Retired rows are dropped when the capacity grows, or once they are
        # the majority; until then the group still computes them. On the
        # benchmark's mixed image they are 2.4-2.7% of the rows computed
        # (0-18% on the other images). Copying the group whenever a row
        # retires ran at 0.84x on mixed and 0.93x on texture (L = 8 tiles),
        # and swap-with-last removal saved only 3 lines of bookkeeping.
        if capacity != rows.capacity or 2 * n_live < len(rows):
            rows = rows.take(np.flatnonzero(rows.live), capacity)
        pos, top, picked = _select(rows, dictionary)
        if np.minimum.reduce(top) <= 0.0:
            exhausted = np.flatnonzero(rows.live & (top < 0.0))
            if len(exhausted):
                r = exhausted[0]
                raise PursuitExhaustedError(
                    f"all atoms masked with residual SSE {rows.sse[r]:.6g} above threshold {threshold:.6g}",
                    index=int(rows.ids[r]),
                )
            # a zero maximum: the residual is orthogonal to the whole dictionary
            _finish(rows, top == 0.0, results)
        flat = dictionary.candidates[pos]
        rows.tried = np.concatenate((rows.tried, pos[:, None]), axis=1)
        accepted = _accept(rows, dictionary, flat)
        if steps is not None:
            a = np.flatnonzero(accepted)
            steps.append((rows.ids[a], rows.k[a], flat[a], picked[a], rows.sse[a]))


def _finish(rows: _Rows, done: np.ndarray, results: list) -> None:
    """Retire the live rows where ``done`` holds, appending their ids, atom
    counts, atoms (row after row) and SSEs to ``results``."""
    which = np.flatnonzero(done & rows.live)
    if len(which):
        k = rows.k[which]
        keep = np.arange(rows.capacity) < k[:, None]
        results.append((rows.ids[which], k, rows.flats[which][keep], rows.coeffs[which][keep], rows.sse[which]))
        rows.live[which] = False


def run_omp(signal: np.ndarray, dictionary, rule: StoppingRule) -> tuple[SparseBlock, float]:
    """Greedy pursuit of ``signal`` until the stopping rule fires.

    Returns the sparse expansion and the Euclidean norm of the final
    residual. This is :func:`pursue` of ``signal[None]``; see it for when
    the pursuit stops or raises, and for a trace.
    """
    _, flats, coeffs, sse = pursue(np.asarray(signal)[None], dictionary, rule)
    entries = [(dictionary.address_of(f), c) for f, c in zip(flats.tolist(), coeffs.tolist())]
    return SparseBlock(entries), math.sqrt(sse[0])
