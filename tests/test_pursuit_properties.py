"""Generated differential checks of the pursuit core.

The dictionaries are ``MatrixDictionary``s of dimension 4-24 with 1-60
columns, among them planted duplicates, copies scaled by 1000, exact
combinations of other columns and integer columns whose correlations with
integer signals tie exactly. Under every stopping mode, with the stack
split over several groups:

- ``pursue`` on the stack gives each signal what ``run_omp`` gives it
  alone, address for address and coefficient bytes for coefficient bytes;
- a stepwise ``select_atom``/``orthogonalize_and_update`` replay accepts
  the same addresses, and each of its picks is the smallest non-excluded
  atom whose ``|correlation|`` lies within a relative 1e-12 of the
  maximum, recomputed densely;
- ``pursue`` raises ``PursuitExhaustedError`` exactly when some signal's
  own ``run_omp`` raises it.
"""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sparseimg import (  # noqa: E402
    MatrixDictionary,
    PursuitExhaustedError,
    PursuitState,
    StoppingRule,
    orthogonalize_and_update,
    run_omp,
    select_atom,
)
from sparseimg import pursuit  # noqa: E402

TIE = 1e-12  # the documented tie window, relative to the maximum
EPS = np.finfo(np.float64).eps

COLUMN_KINDS = ("normal", "integer", "unit", "duplicate", "scaled", "combination")
SIGNAL_KINDS = ("normal", "integer", "sparse", "near", "atom", "zero")


@st.composite
def problems(draw):
    """A dictionary, a stack of signals, a stopping rule and a group size."""
    dim = draw(st.integers(4, 24))
    n_atoms = draw(st.integers(1, 60))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=n_atoms, max_size=n_atoms))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        if kind == "normal" or (not columns and kind not in ("integer", "unit")):
            column = rng.normal(size=dim)
        elif kind == "integer":
            column = rng.integers(-2, 3, size=dim).astype(np.float64)
        elif kind == "unit":
            column = np.eye(dim)[rng.integers(dim)]
        elif kind == "duplicate":
            column = columns[rng.integers(len(columns))].copy()
        elif kind == "scaled":
            column = 1000.0 * columns[rng.integers(len(columns))]
        else:  # exact for integer columns, rounded for the others
            a, b = rng.integers(len(columns), size=2)
            column = columns[a] + rng.integers(-2, 3) * columns[b]
        columns.append(column)
    if draw(st.booleans()):  # every column twice, so dust-level picks often repeat one
        columns = (columns[: (n_atoms + 1) // 2] * 2)[:n_atoms]
    matrix = np.column_stack(columns)

    count = draw(st.integers(1, 6))
    signals = []
    for kind in draw(st.lists(st.sampled_from(SIGNAL_KINDS), min_size=count, max_size=count)):
        if kind == "normal":
            signal = rng.normal(size=dim)
        elif kind == "integer":
            signal = rng.integers(-3, 4, size=dim).astype(np.float64)
        elif kind in ("sparse", "near"):  # near: slightly off their span
            picked = rng.integers(n_atoms, size=rng.integers(1, 4))
            signal = matrix[:, picked] @ rng.integers(1, 4, size=len(picked)).astype(np.float64)
            if kind == "near":
                signal += 10.0 ** rng.uniform(-16, -8) * rng.normal(size=dim)
        elif kind == "atom":
            signal = matrix[:, rng.integers(n_atoms)].copy()
        else:
            signal = np.zeros(dim)
        signals.append(signal)

    mode = draw(st.sampled_from(pursuit.STOP_MODES))
    threshold = draw(st.sampled_from([0.0, 1e-12, 0.5, 4.0, math.inf]))
    cap = draw(st.integers(0, dim))
    rule = StoppingRule(
        mode,
        sse_threshold=0.0 if mode == "max_atoms" else threshold,
        atom_cap=None if mode == "target_sse" else cap,
    )
    group = draw(st.integers(1, 4))
    return MatrixDictionary(matrix), np.array(signals), rule, group


def alone(signal, md, rule):
    """``run_omp``'s addresses, coefficients and residual norm, or None when it exhausts."""
    try:
        block, norm = run_omp(signal, md, rule)
    except PursuitExhaustedError:
        return None
    return [a for a, _ in block.entries], np.array([c for _, c in block.entries]), norm


def check_pick(state, md, pick):
    """``pick`` is the smallest non-excluded atom within TIE of the dense maximum.

    Correlations are recomputed with ``math.fsum``; ``bound`` covers the
    rounding of both routes, so the check holds for any summation order.
    """
    products = md.matrix * state.residual[:, None]
    corr = np.abs([math.fsum(column) for column in products.T])
    bound = 4 * (md.dim + 2) * EPS * np.abs(products).sum(axis=0)
    excluded = {*state.selected, *state.masked}
    assert pick not in excluded
    open_ = np.array([a for a in range(md.n_atoms) if a not in excluded])
    top, slack = corr[open_].max(), bound[open_].max()
    assert corr[pick] >= (1 - TIE) * (top - slack) - bound[pick]
    smaller = open_[open_ < pick]
    assert np.all(corr[smaller] < (1 - TIE) * (top + slack) + bound[smaller])


def replay(signal, md, rule, n_accepted):
    """Stepwise pursuit of ``signal`` until it holds ``n_accepted`` atoms
    (or, with None, until it stops or exhausts); every step tries a new atom."""
    cap = md.dim if rule.atom_cap is None else rule.atom_cap
    threshold = rule.sse_threshold if rule.mode != "max_atoms" else 0.0
    state = PursuitState(signal, capacity=cap)
    for _ in range(md.n_atoms + 1):
        if n_accepted is None:
            if state.residual_sse <= threshold or state.k == cap:
                return state
        elif state.k == n_accepted:
            return state
        pick = select_atom(state, md)
        check_pick(state, md, pick)
        orthogonalize_and_update(state, md, pick)
    raise AssertionError(f"more than {md.n_atoms} steps: an atom was tried twice")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(problem=problems())
def test_pursuit_core_agrees_with_itself(problem):
    md, signals, rule, group = problem
    expected = [alone(signal, md, rule) for signal in signals]

    with mock.patch.object(pursuit, "GROUP_ENTRIES", group * md.n_atoms):
        if any(e is None for e in expected):
            with pytest.raises(PursuitExhaustedError) as info:
                pursuit.pursue(signals, md, rule)
            assert expected[info.value.index] is None
        else:
            results = pursuit.pursue(signals, md, rule)
            for (block, norm), (addresses, coeffs, alone_norm) in zip(results, expected):
                assert [a for a, _ in block.entries] == addresses
                assert np.array([c for _, c in block.entries]).tobytes() == coeffs.tobytes()
                assert norm == alone_norm

    for signal, e in zip(signals, expected):
        if e is None:
            with pytest.raises(PursuitExhaustedError):
                replay(signal, md, rule, None)
            continue
        addresses, coeffs, _ = e
        state = replay(signal, md, rule, len(addresses))
        assert state.selected == addresses
        assert state.coefficients.tobytes() == coeffs.tobytes()
