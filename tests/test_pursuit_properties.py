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

The same checks run on the separable ``dct2_linear`` dictionaries at
L = 5-8, over stacks of noise, planted integer sums of 1-4 atoms, constant
and zero blocks; there a pick may not be a non-candidate twin. Their
coefficients also match the least-squares solution on the same support
within ``LS_FACTOR * k * eps * cond(A_S)**2 * |c|``. The pursuit solves the
normal equations (a Cholesky factor of the Gram matrix), so its error
grows with the square of the condition number, not the first power: a
planted L = 5 block pursued to a zero threshold accepted 25 atoms with
cond(A_S) = 1.1e8, and its coefficients differ from the least-squares ones
by their own size. A fixed high-k case, the 64x64 corner of corpus
``texture`` at 80 dB, checks that the residual stays at the least-squares
residual of its support when blocks hold up to 165 atoms.
"""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sparseimg import (  # noqa: E402
    Dictionary2D,
    DictionaryKind,
    MatrixDictionary,
    PursuitExhaustedError,
    PursuitState,
    StoppingRule,
    assemble_dictionary,
    orthogonalize_and_update,
    psnr_to_block_sse,
    run_omp,
    select_atom,
)
from sparseimg import pursuit  # noqa: E402
from sparseimg.codec import to_blocks  # noqa: E402

from _corpus import crop  # noqa: E402
from _oracles import flattened_atoms, least_squares_coeffs  # noqa: E402

TIE = 1e-12  # the documented tie window, relative to the maximum
EPS = np.finfo(np.float64).eps
LS_FACTOR = 16  # the constant of the least-squares bound

# one dct2_linear dictionary per block side, with its candidate atoms as dense rows
DICT2D = {L: Dictionary2D(assemble_dictionary(DictionaryKind.DCT2_LINEAR, L)) for L in range(5, 9)}
ATOMS2D = {L: flattened_atoms(d)[d.candidates] for L, d in DICT2D.items()}

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

    rule, group = draw(rules_and_groups(dim))
    return MatrixDictionary(matrix), np.array(signals), rule, group


@st.composite
def rules_and_groups(draw, dim):
    """A stopping rule for signals of ``dim`` samples and a group size."""
    threshold = draw(st.sampled_from([0.0, 1e-12, 0.5, 4.0, math.inf]))
    cap = draw(st.none() | st.integers(0, dim))
    rule = StoppingRule(sse_threshold=threshold, atom_cap=cap)
    return rule, draw(st.integers(1, 4))


BLOCK_KINDS = ("noise", "planted", "constant", "zero")


@st.composite
def problems_2d(draw):
    """A dct2_linear dictionary at L = 5-8, a stack of 1-6 blocks, a stopping rule and a group size."""
    L = draw(st.integers(5, 8))
    d = DICT2D[L]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 6))
    blocks = []
    for kind in draw(st.lists(st.sampled_from(BLOCK_KINDS), min_size=count, max_size=count)):
        if kind == "noise":
            block = rng.normal(0.0, 20.0, size=(L, L))
        elif kind == "planted":  # a sum of 1-4 candidate atoms with integer coefficients
            picked = rng.choice(len(d.candidates), size=rng.integers(1, 5), replace=False)
            weights = rng.choice([-3, -2, -1, 1, 2, 3], size=len(picked))
            block = (weights @ ATOMS2D[L][picked]).reshape(L, L)
        elif kind == "constant":
            block = np.full((L, L), float(rng.integers(1, 256)))
        else:
            block = np.zeros((L, L))
        blocks.append(block)
    rule, group = draw(rules_and_groups(L * L))
    return d, np.array(blocks), rule, group


def alone(signal, md, rule):
    """``run_omp``'s addresses, coefficients and residual norm, or None when it exhausts."""
    try:
        block, norm = run_omp(signal, md, rule)
    except PursuitExhaustedError:
        return None
    return [a for a, _ in block.entries], np.array([c for _, c in block.entries]), norm


def check_pick(state, dictionary, atoms, magnitudes, pick, exact=True):
    """``pick`` is the smallest non-excluded candidate within TIE of the dense maximum.

    ``atoms`` holds the candidate atoms as rows, in candidate order, and
    ``magnitudes`` their absolute values; atoms that are not candidates are
    never picked, and accepted and masked atoms are excluded. Correlations
    are recomputed with ``math.fsum``, or with a matrix product when
    ``exact`` is false, which may add ``dim * eps * sum|products|`` more;
    ``bound`` covers the rounding of both routes, so the check holds for
    any summation order.
    """
    dim = atoms.shape[1]
    residual = state.residual.ravel()
    candidates = dictionary.candidates
    excluded = [*map(dictionary.flat_index, state.selected), *state.masked]
    is_open = np.ones(len(candidates), dtype=bool)
    is_open[np.searchsorted(candidates, excluded)] = False
    at = np.searchsorted(candidates, dictionary.flat_index(pick))
    assert at < len(candidates) and candidates[at] == dictionary.flat_index(pick) and is_open[at]
    if exact:
        products = atoms * residual
        corr = np.abs([math.fsum(row) for row in products])
        bound = 4 * (dim + 2) * EPS * np.abs(products).sum(axis=1)
    else:
        corr = np.abs(atoms @ residual)
        bound = 5 * (dim + 2) * EPS * (magnitudes @ np.abs(residual))
    top, slack = corr[is_open].max(), bound[is_open].max()
    assert corr[at] >= (1 - TIE) * (top - slack) - bound[at]
    smaller = is_open[:at]
    assert np.all(corr[:at][smaller] < (1 - TIE) * (top + slack) + bound[:at][smaller])


def replay(signal, dictionary, atoms, rule, n_accepted, exact=True):
    """Stepwise pursuit of ``signal`` until it holds ``n_accepted`` atoms
    (or, with None, until it stops or exhausts); every step tries a new atom."""
    dim = atoms.shape[1]
    cap = dim if rule.atom_cap is None else rule.atom_cap
    state = PursuitState(signal, capacity=cap)
    magnitudes = np.abs(atoms)
    for _ in range(len(dictionary.candidates) + 1):
        if n_accepted is None:
            if state.residual_sse <= rule.sse_threshold or state.k == cap:
                return state
        elif state.k == n_accepted:
            return state
        pick = select_atom(state, dictionary)
        check_pick(state, dictionary, atoms, magnitudes, pick, exact)
        orthogonalize_and_update(state, dictionary, pick)
    raise AssertionError(f"more than {len(dictionary.candidates)} steps: an atom was tried twice")


def check_agreement(dictionary, atoms, signals, rule, group, exact=True):
    """``pursue`` over ``signals`` in groups of ``group`` against ``run_omp``
    on each signal alone and a stepwise replay of each; returns what
    ``run_omp`` gave each signal (None where it exhausted)."""
    expected = [alone(signal, dictionary, rule) for signal in signals]

    with mock.patch.object(pursuit, "GROUP_ENTRIES", group * len(dictionary.candidates)):
        if any(e is None for e in expected):
            with pytest.raises(PursuitExhaustedError) as info:
                pursuit.pursue(signals, dictionary, rule)
            assert expected[info.value.index] is None
        else:
            counts, flats, coeffs, sse = pursuit.pursue(signals, dictionary, rule)
            ends = np.cumsum(counts)[:-1]
            columns = zip(np.split(flats, ends), np.split(coeffs, ends), sse)
            for (got_flats, got_coeffs, got_sse), (addresses, coeffs, alone_norm) in zip(columns, expected):
                assert [dictionary.address_of(flat) for flat in got_flats] == addresses
                assert got_coeffs.tobytes() == coeffs.tobytes()
                assert np.sqrt(got_sse) == alone_norm

    for signal, e in zip(signals, expected):
        if e is None:
            with pytest.raises(PursuitExhaustedError):
                replay(signal, dictionary, atoms, rule, None, exact)
            continue
        addresses, coeffs, _ = e
        state = replay(signal, dictionary, atoms, rule, len(addresses), exact)
        assert state.selected == addresses
        assert state.coefficients.tobytes() == coeffs.tobytes()
    return expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(problem=problems())
def test_pursuit_core_agrees_with_itself(problem):
    md, signals, rule, group = problem
    check_agreement(md, md.matrix.T, signals, rule, group)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(problem=problems_2d())
def test_pursuit_core_agrees_with_itself_on_dictionary2d(problem):
    d, blocks, rule, group = problem
    L = d.base.block_len
    expected = check_agreement(d, ATOMS2D[L], blocks, rule, group, exact=False)
    for block, e in zip(blocks, expected):
        if e is None or not e[0]:
            continue
        addresses, coeffs, _ = e
        A = np.column_stack([d.atom_flat(d.flat_index(a)) for a in addresses])
        error = np.linalg.norm(coeffs - least_squares_coeffs(d, addresses, block))
        k, cond = len(addresses), np.linalg.cond(A)
        assert error <= LS_FACTOR * k * EPS * cond**2 * np.linalg.norm(coeffs)


@pytest.mark.parametrize("L", [8, 16])
def test_high_k_residual_is_the_least_squares_residual(L):
    # up to 48 atoms per block at L = 8 and 165 at L = 16; the worst excess
    # seen is about 3e-20 of the block energy
    d = Dictionary2D(assemble_dictionary(DictionaryKind.DCT2_LINEAR, L))
    blocks = to_blocks(crop("texture").as_float()[:64, :64], L).reshape(-1, L, L)
    rule = StoppingRule(sse_threshold=psnr_to_block_sse(80.0, L), atom_cap=L * L)
    counts, flats, _, sse = pursuit.pursue(blocks, d, rule)
    assert counts.max() > 2 * L
    for block, block_flats, block_sse in zip(blocks, np.split(flats, np.cumsum(counts)[:-1]), sse):
        addresses = [d.address_of(flat) for flat in block_flats]
        A = np.column_stack([d.atom_flat(d.flat_index(a)) for a in addresses])
        f = block.ravel()
        ls_sse = np.sum((f - A @ least_squares_coeffs(d, addresses, block)) ** 2)
        assert block_sse - ls_sse <= 1e-12 * (f @ f)
