import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from sparseimg import (
    Dictionary2D,
    DictionaryKind,
    MatrixDictionary,
    PursuitExhaustedError,
    PursuitState,
    StoppingRule,
    assemble_dictionary,
    orthogonalize_and_update,
    run_omp,
    select_atom,
)
import sparseimg
from sparseimg.pursuit import pursue

from _oracles import least_squares_coeffs


def toy_dictionary():
    """e1 and the normalized sum direction, in dimension 2."""
    return MatrixDictionary(np.array([[1.0, 1.0 / np.sqrt(2)], [0.0, 1.0 / np.sqrt(2)]]))


def per_signal(counts, *columns):
    """Each signal's slice of each of ``pursue``'s per-atom columns."""
    ends = np.cumsum(counts)[:-1]
    return zip(*(np.split(column, ends) for column in columns))


def synthesis(dictionary, block):
    """The sum of ``block``'s atoms times their coefficients."""
    flats = np.array([dictionary.flat_index(address) for address, _ in block.entries], dtype=np.intp)
    return dictionary.synthesize(flats, np.array([c for _, c in block.entries]))


def random_dictionary(rng, dim, n_atoms):
    atoms = rng.normal(size=(dim, n_atoms))
    return MatrixDictionary(atoms / np.linalg.norm(atoms, axis=0))


class TestStoppingRule:
    def test_rejects_unknown_mode(self):
        for mode in ("whenever", "target_sse", "max_atoms"):
            with pytest.raises(ValueError, match=mode):
                StoppingRule(mode=mode)
        assert StoppingRule(mode="both") == StoppingRule()

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError, match="sse_threshold"):
            StoppingRule(sse_threshold=-1.0)

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError, match="atom_cap must be nonnegative"):
            StoppingRule(atom_cap=-1)

    def test_cap_holds_at_any_threshold(self):
        # no cap means the signal dimension; a cap below it stops the
        # pursuit even where the threshold of 0.0 is never met
        f, md = np.arange(1.0, 7.0)[None], MatrixDictionary(np.eye(6))
        for rule, count in ((StoppingRule(sse_threshold=0.0, atom_cap=2), 2), (StoppingRule(sse_threshold=0.0), 6)):
            counts, _, _, _ = pursue(f, md, rule)
            assert counts.tolist() == [count]

    def test_cap_above_dimension_rejected_at_run(self, dict2_linear16):
        rule = StoppingRule(sse_threshold=1.0, atom_cap=300)
        with pytest.raises(ValueError, match="dimension"):
            run_omp(np.zeros((16, 16)), dict2_linear16, rule)


class TestSelectAtom:
    def test_planted_2d_atom(self, dict2_linear16):
        U = dict2_linear16.base.matrix
        state = PursuitState(np.outer(U[:, 5], U[:, 2]), capacity=4)
        assert select_atom(state, dict2_linear16) == (5, 2)

    def test_toy_prefers_larger_inner_product(self):
        # |<f, a2>| = 1.5/sqrt(2) beats |<f, a1>| = 1
        state = PursuitState(np.array([1.0, 0.5]), capacity=2)
        assert select_atom(state, toy_dictionary()) == 1

    def test_zero_residual_ties_break_to_smallest_address(self, dict2_linear16):
        state = PursuitState(np.zeros((16, 16)), capacity=4)
        assert select_atom(state, dict2_linear16) == (0, 0)

    @pytest.mark.parametrize(
        "kind, twin, expected",
        [
            (DictionaryKind.DCT2_LINEAR, (67, 21), (49, 21)),
            (DictionaryKind.DCT2_LINEAR, (48, 67), (32, 49)),
            (DictionaryKind.DCT2_LINEAR, (5, 84), (5, 64)),
            (DictionaryKind.DCT2_CUBIC, (73, 96), (51, 70)),
        ],
    )
    def test_twin_atom_ties_break_to_smallest_address(self, kind, twin, expected):
        # the planted atom equals the expected one up to rounding (u_67 and
        # u_49 differ in the last bit), so the correlations tie and the
        # smaller address must win
        d = Dictionary2D(assemble_dictionary(kind, 16))
        U = d.base.matrix
        f = 3.0 * np.outer(U[:, twin[0]], U[:, twin[1]])
        assert select_atom(PursuitState(f, capacity=1), d) == expected
        block, _ = run_omp(f, d, StoppingRule(sse_threshold=1e-20))
        assert [address for address, _ in block.entries] == [expected]
        assert block.entries[0][1] == pytest.approx(3.0, abs=1e-12)

    def test_masked_atoms_are_skipped(self):
        md = toy_dictionary()
        state = PursuitState(np.array([1.0, 0.5]), capacity=2)
        state.masked.add(1)
        assert select_atom(state, md) == 0

    def test_all_masked_raises(self):
        md = toy_dictionary()
        state = PursuitState(np.array([1.0, 0.5]), capacity=2)
        state.masked.update({0, 1})
        with pytest.raises(PursuitExhaustedError):
            select_atom(state, md)

    def test_tried_twin_does_not_exclude_the_last_candidate(self, dict2_linear16):
        # (48, 7) repeats (32, 7), so it is no candidate; excluding it must
        # leave the last candidate, planted here, selectable
        d = dict2_linear16
        assert d.address_of(d.candidates[-1]) == (83, 83)
        U = d.base.matrix
        f = np.outer(U[:, 83], U[:, 83])
        state = PursuitState(f, capacity=4)
        state.masked.add(d.flat_index((48, 7)))
        assert select_atom(state, d) == (83, 83)
        state = PursuitState(f, capacity=4)
        orthogonalize_and_update(state, d, (48, 7))
        assert state.selected == [(48, 7)]
        assert select_atom(state, d) == (83, 83)


class TestTieWindow:
    @pytest.mark.parametrize("first", [0, 1])
    def test_exact_tie_goes_to_smaller_address_in_any_group(self, first):
        # <a, f> = <b, f> = 1 + 2**-52 exactly, but summed in order a gives
        # 1 + 2**-53 + 2**-53 = 1 and b gives 2**-53 + 2**-53 + 1 = 1 + 2**-52
        e = 2.0**-53
        a, b = [1.0, e, e], [e, e, 1.0]
        md = MatrixDictionary(np.array([a, b] if first == 0 else [b, a]).T)
        f = np.ones(3)
        assert select_atom(PursuitState(f, capacity=1), md) == 0
        rule = StoppingRule(atom_cap=1)
        others = np.random.default_rng(3).normal(size=(4, 3))
        for stack in (f[None], np.vstack([others, f]), np.vstack([f, others, f])):
            counts, flats, _, _ = pursue(stack, md, rule)
            for (addresses,), signal in zip(per_signal(counts, flats), stack):
                if np.array_equal(signal, f):
                    assert addresses.tolist() == [0]


class TestMaskedRowsInAGroup:
    @staticmethod
    def masking_case(pairs):
        # u and 1000 u span one direction: once u is accepted, rounding dust
        # along u times 1000 outweighs the tiny tails, so 1000 u is picked
        # and masked, and the row falls a step behind the rows that did not.
        # With two such pairs, rows fall behind by 0, 1 or 2 steps.
        dim = 24
        columns = []
        for p in range(pairs):
            u = np.zeros(dim)
            u[2 * p : 2 * p + 2] = 1 / np.sqrt(2)
            columns += [u, 1000 * u]
        md = MatrixDictionary(np.column_stack(columns + list(np.eye(dim)[2 * pairs :])))
        rng = np.random.default_rng(0)
        signals = np.zeros((40, dim))
        signals[:, : 2 * pairs] = rng.normal(size=(40, 2 * pairs))
        tails = rng.normal(size=(40, dim - 2 * pairs)) * np.logspace(-22, -14, 40)[:, None]
        signals[:, 2 * pairs :] = tails
        return md, signals

    @pytest.mark.parametrize("pairs", [1, 2])
    def test_masking_happens(self, pairs):
        md, signals = self.masking_case(pairs)
        state = PursuitState(signals[0], capacity=7)
        while state.k < 7:
            orthogonalize_and_update(state, md, select_atom(state, md))
        assert len(state.masked) == pairs

    # cap 7 is the first capacity itself; 9 and 17 cross the capacity steps
    # 8 and 16 while masked rows lag behind the others
    @pytest.mark.parametrize("pairs", [1, 2])
    @pytest.mark.parametrize("cap", [7, 9, 17])
    def test_grouped_rows_equal_their_pursuit_alone(self, cap, pairs):
        md, signals = self.masking_case(pairs)
        rule = StoppingRule(atom_cap=cap)
        counts, flats, coeffs, sse = pursue(signals, md, rule)
        for (addresses, values), s, signal in zip(per_signal(counts, flats, coeffs), sse, signals):
            alone, alone_norm = run_omp(signal, md, rule)
            assert addresses.tolist() == [a for a, _ in alone.entries]
            assert values.tobytes() == np.array([c for _, c in alone.entries]).tobytes()
            assert np.sqrt(s) == alone_norm

    def test_stepwise_pursuit_equals_run_omp(self):
        # Every column twice: once the signal is represented exactly, dust
        # picks repeat columns, which get masked. The stepwise state grows
        # at the step counts a pursued row grows at, so each acceptance
        # sees a factor of the same width and gives the same bits.
        rng = np.random.default_rng(0)
        atoms = rng.normal(size=(18, 24))
        md = MatrixDictionary(np.column_stack([atoms, atoms]))
        f = atoms[:, :3].sum(axis=1)
        block, _ = run_omp(f, md, StoppingRule(sse_threshold=0.0))
        state = PursuitState(f, capacity=18)
        while state.k < len(block):
            orthogonalize_and_update(state, md, select_atom(state, md))
        assert state.masked
        assert state.selected == [a for a, _ in block.entries]
        assert state.coefficients.tobytes() == np.array([c for _, c in block.entries]).tobytes()


class TestGroups:
    @staticmethod
    def groups(dictionary, count):
        """The ids of each group ``pursue`` makes of ``count`` zero signals, in call order."""
        with mock.patch.object(sparseimg.pursuit, "_pursue_group", wraps=sparseimg.pursuit._pursue_group) as spy:
            counts, _, _, _ = pursue(np.zeros((count, 16, 16)), dictionary, StoppingRule(sse_threshold=0.0))
        assert counts.tolist() == [0] * count
        return [call.args[0].ids.tolist() for call in spy.call_args_list]

    @pytest.mark.parametrize("count, sizes", [(16, {16}), (1024, {16})])
    def test_groups_are_consecutive_and_near_equal(self, dict2_cubic16, count, sizes):
        # a 64 x 64 tile at L = 16 is one group, not 15 blocks and then 1;
        # a 512 x 512 image is 64 groups of 16 (8,464 candidates each)
        groups = self.groups(dict2_cubic16, count)
        assert len(groups) == -(-count // 16)
        assert {len(g) for g in groups} == sizes
        assert sum(groups, []) == list(range(count))

    def test_no_group_exceeds_its_budget(self, dict2_cubic16):
        # 23 blocks once ran as one group of 1.5 times the budget, which
        # raised the memory peak with it
        cap = sparseimg.pursuit.GROUP_ENTRIES // len(dict2_cubic16.candidates)
        for count in range(1, 41):
            sizes = [len(g) for g in self.groups(dict2_cubic16, count)]
            assert len(sizes) == -(-count // cap), count
            assert max(sizes) <= cap and max(sizes) - min(sizes) <= 1, (count, sizes)


class TestOrthogonalizeAndUpdate:
    def test_first_iteration_uses_atom_directly(self):
        md = toy_dictionary()
        f = np.array([1.0, 0.5])
        state = PursuitState(f, capacity=2)
        orthogonalize_and_update(state, md, 1)
        atom = md.atom_flat(1)
        np.testing.assert_allclose(state.orthonormal_basis[:, 0], atom, atol=1e-15)
        np.testing.assert_allclose(state.dual_basis[:, 0], atom, atol=1e-15)
        assert state.coefficients[0] == pytest.approx(atom @ f, abs=1e-15)

    def test_duplicate_direction_is_masked_and_state_unchanged(self):
        md = MatrixDictionary(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        f = np.array([0.7, -0.2])
        state = PursuitState(f, capacity=2)
        orthogonalize_and_update(state, md, 0)
        residual_before = state.residual.copy()
        orthogonalize_and_update(state, md, 2)  # same direction as atom 0
        assert state.masked == {2}
        assert state.k == 1
        assert state.selected == [0]
        np.testing.assert_array_equal(state.residual, residual_before)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e-3])
    def test_exact_duplicate_of_any_norm_is_masked(self, scale):
        # an oblique duplicate leaves a rounding-level remainder, not an exact
        # zero; it must be masked rather than accepted with a huge coefficient
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(2, 6))
        md = MatrixDictionary(np.column_stack([scale * a, scale * b, -2.5 * scale * a]))
        f = rng.normal(size=6)
        state = PursuitState(f, capacity=3)
        orthogonalize_and_update(state, md, 0)
        orthogonalize_and_update(state, md, 1)
        before = state.coefficients
        orthogonalize_and_update(state, md, 2)
        assert state.masked == {2}
        assert state.selected == [0, 1]
        np.testing.assert_array_equal(state.coefficients, before)

    def test_twin_2d_atom_is_masked(self, dict2_linear16):
        rng = np.random.default_rng(12)
        state = PursuitState(rng.normal(size=(16, 16)), capacity=4)
        orthogonalize_and_update(state, dict2_linear16, (32, 7))
        orthogonalize_and_update(state, dict2_linear16, (48, 7))  # u_48 == u_32
        assert state.k == 1
        assert state.masked == {dict2_linear16.flat_index((48, 7))}

    def test_small_norm_independent_atom_is_accepted(self):
        md = MatrixDictionary(np.array([[1e-6, 0.0], [0.0, 1e-6]]))
        state = PursuitState(np.array([2.0, 3.0]), capacity=2)
        orthogonalize_and_update(state, md, 0)
        orthogonalize_and_update(state, md, 1)
        assert state.k == 2
        np.testing.assert_allclose(state.coefficients, [2e6, 3e6], rtol=1e-12)

    def test_near_dependent_cubic_atoms_match_normal_equations(self, dict2_cubic16):
        # 1D cubic atoms with Gram above 0.99 give 2D atom sets whose Gram
        # matrix has condition numbers up to ~3e6, the square of the atoms'
        # own; the Cholesky factor works on that Gram matrix
        d = dict2_cubic16
        G, canonical = d.base.gram, d.base.canonical
        n = d.n_base
        pairs = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if G[a, b] > 0.99 and canonical[a] == a and canonical[b] == b
        ]
        assert len(pairs) == 14
        U = d.base.matrix
        rng = np.random.default_rng(5)
        for a, b in pairs:
            quad = [(a, a), (a, b), (b, a), (b, b)]
            c = rng.normal(size=4)
            f = sum(ci * np.outer(U[:, p], U[:, q]) for ci, (p, q) in zip(c, quad))
            f = f + 0.05 * rng.normal(size=(16, 16))
            state = PursuitState(f, capacity=12)
            for address in quad:
                orthogonalize_and_update(state, d, address)
            while state.k < 12:
                orthogonalize_and_update(state, d, select_atom(state, d))
            assert not state.masked
            np.testing.assert_allclose(
                state.coefficients, least_squares_coeffs(d, state.selected, f), atol=1e-8
            )

    def test_reselecting_accepted_atom_is_an_error(self):
        md = toy_dictionary()
        state = PursuitState(np.array([1.0, 0.5]), capacity=2)
        orthogonalize_and_update(state, md, 0)
        with pytest.raises(ValueError, match="already"):
            orthogonalize_and_update(state, md, 0)

    def test_full_state_is_an_error(self):
        md = toy_dictionary()
        state = PursuitState(np.array([1.0, 0.5]), capacity=1)
        orthogonalize_and_update(state, md, 0)
        with pytest.raises(ValueError, match=r"pursuit state is full \(1 atoms\)"):
            orthogonalize_and_update(state, md, 1)
        assert state.selected == [0]

    def test_empty_state_has_empty_bases(self):
        state = PursuitState(np.array([1.0, 0.5, -2.0]), capacity=3)
        assert state.orthonormal_basis.shape == (3, 0)
        assert state.dual_basis.shape == (3, 0)

    def test_coefficients_match_normal_equations(self):
        rng = np.random.default_rng(11)
        md = random_dictionary(rng, 8, 20)
        f = rng.normal(size=8)
        state = PursuitState(f, capacity=5)
        for _ in range(5):
            orthogonalize_and_update(state, md, select_atom(state, md))
        np.testing.assert_allclose(
            state.coefficients, least_squares_coeffs(md, state.selected, f), atol=1e-10
        )

    def test_masks_added_by_hand_count_as_steps(self):
        # two masks carry the step count from 7 past 8 at capacity 9; the
        # factor must still grow to hold the ninth atom
        rng = np.random.default_rng(5)
        md = random_dictionary(rng, 9, 30)
        f = rng.normal(size=9)
        state = PursuitState(f, capacity=9)
        for _ in range(7):
            orthogonalize_and_update(state, md, select_atom(state, md))
        state.masked |= set(np.setdiff1d(np.arange(30), state.selected)[:2].tolist())
        while state.k < 9:
            orthogonalize_and_update(state, md, select_atom(state, md))
        assert len(state.selected) == len(state.coefficients) == 9
        np.testing.assert_allclose(
            state.coefficients, least_squares_coeffs(md, state.selected, f), atol=1e-10
        )

    def test_state_invariants(self):
        rng = np.random.default_rng(3)
        md = random_dictionary(rng, 12, 30)
        f = rng.normal(size=12)
        state = PursuitState(f, capacity=8)
        for _ in range(8):
            orthogonalize_and_update(state, md, select_atom(state, md))
        Q = state.orthonormal_basis
        np.testing.assert_allclose(Q.T @ Q, np.eye(8), atol=1e-8)
        # biorthogonality against the selected atoms
        A = np.column_stack([md.atom_flat(i) for i in state.selected])
        np.testing.assert_allclose(state.dual_basis.T @ A, np.eye(8), atol=1e-6)
        # Pythagoras for the orthogonal projection
        approx = A @ state.coefficients
        lhs = f @ f
        rhs = approx @ approx + state.residual_sse
        assert abs(lhs - rhs) <= 1e-8 * (f @ f)


class TestRunOmp:
    def test_single_planted_atom(self, dict2_linear16):
        U = dict2_linear16.base.matrix
        f = 3.7 * np.outer(U[:, 2], U[:, 9])
        block, residual_norm = run_omp(f, dict2_linear16, StoppingRule(sse_threshold=1e-12))
        assert len(block) == 1
        (address, coeff), = block.entries
        assert address == (2, 9)
        assert coeff == pytest.approx(3.7, abs=1e-10)
        assert residual_norm <= 1e-10

    def test_three_separated_atoms_recovered_exactly(self, dict2_linear16):
        U = dict2_linear16.base.matrix
        f = (
            2.0 * np.outer(U[:, 0], U[:, 40])
            - 1.5 * np.outer(U[:, 33], U[:, 5])
            + 0.7 * np.outer(U[:, 60], U[:, 70])
        )
        block, residual_norm = run_omp(f, dict2_linear16, StoppingRule(sse_threshold=1e-20))
        assert residual_norm**2 <= 1e-20
        assert len(block) <= 16 * 16
        assert sorted(addr for addr, _ in block.entries) == [(0, 40), (33, 5), (60, 70)]

    def test_infinite_threshold_selects_nothing(self, dict2_linear16):
        f = np.ones((16, 16))
        block, residual_norm = run_omp(
            f, dict2_linear16, StoppingRule(sse_threshold=float("inf"))
        )
        assert block.entries == []
        assert residual_norm == pytest.approx(np.linalg.norm(f))

    def test_both_at_zero_threshold_stops_at_cap(self, dict2_linear16):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(16, 16))
        for cap in (0, 7):
            block, _ = run_omp(f, dict2_linear16, StoppingRule(atom_cap=cap))
            assert len(block) == cap

    def test_approximation_equals_projection(self):
        rng = np.random.default_rng(23)
        md = random_dictionary(rng, 10, 25)
        f = rng.normal(size=10)
        block, _ = run_omp(f, md, StoppingRule(atom_cap=6))
        addresses = [addr for addr, _ in block.entries]
        A = np.column_stack([md.atom_flat(i) for i in addresses])
        projection = A @ np.linalg.lstsq(A, f, rcond=None)[0]
        approx = synthesis(md, block)
        np.testing.assert_allclose(approx, projection, rtol=1e-6, atol=1e-9)

    def test_zero_correlation_stops_without_error(self):
        # dictionary spans only the first two coordinates; the rest of the
        # signal is unreachable and the selection maximum drops to zero
        md = MatrixDictionary(np.eye(3)[:, :2])
        f = np.array([1.0, 0.0, 2.0])
        block, residual_norm = run_omp(f, md, StoppingRule(sse_threshold=0.0))
        assert block.entries == [(0, 1.0)]
        assert residual_norm == pytest.approx(2.0)

    def test_exhaustion_raises_when_threshold_unreachable(self):
        # duplicated oblique atom: once masked there is nothing left to try,
        # but floating-point dust keeps the correlations nonzero
        a = np.array([1.0, 1.0]) / np.sqrt(2)
        md = MatrixDictionary(np.column_stack([a, a]))
        f = np.array([0.3, 0.7])
        with pytest.raises(PursuitExhaustedError):
            run_omp(f, md, StoppingRule(sse_threshold=0.0))

    def test_dictionary_without_atoms_is_rejected(self):
        with pytest.raises(ValueError, match="no atom columns"):
            MatrixDictionary(np.zeros((3, 0)))

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4)])
    def test_dictionary_that_is_not_a_matrix_is_rejected(self, shape):
        with pytest.raises(ValueError, match=r"expected a \(dim, n_atoms\) matrix"):
            MatrixDictionary(np.ones(shape))

    @pytest.mark.parametrize("index", [-1, 2])
    def test_matrix_atom_index_out_of_range(self, index):
        with pytest.raises(IndexError, match=f"atom index {index} out of range for 2 atoms"):
            toy_dictionary().flat_index(index)

    def test_matrix_correlate_checks_the_signal_shape(self):
        with pytest.raises(ValueError, match=r"expected a stack of \(2,\) signals, got \(1, 3\)"):
            toy_dictionary().correlate(np.zeros((1, 3)))

    def test_signal_shape_mismatch(self, dict2_linear16):
        with pytest.raises(ValueError, match="shape"):
            run_omp(np.zeros(256), dict2_linear16, StoppingRule(sse_threshold=1.0))

    def test_determinism(self, dict2_linear16):
        rng = np.random.default_rng(5)
        f = rng.integers(0, 256, size=(16, 16)).astype(float)
        rule = StoppingRule(sse_threshold=500.0, atom_cap=64)
        first, _ = run_omp(f, dict2_linear16, rule)
        second, _ = run_omp(f, dict2_linear16, rule)
        assert first.entries == second.entries

    def test_trace_rows(self, dict2_linear16):
        rng = np.random.default_rng(9)
        f = rng.normal(size=(16, 16))
        trace = []
        _, flats, _, sse = pursue(f[None], dict2_linear16, StoppingRule(atom_cap=5), trace=trace)
        assert len(trace) == len(flats) == 5
        assert [row[0] for row in trace] == [0] * 5
        ks = [row[1] for row in trace]
        assert ks == [1, 2, 3, 4, 5]
        addresses = [row[2] for row in trace]
        assert addresses == [dict2_linear16.address_of(flat) for flat in flats.tolist()]
        sses = [row[4] for row in trace]
        assert all(b <= a for a, b in zip(sses, sses[1:]))
        assert sses[-1] == sse[0]

    def test_residual_monotone_and_orthogonal(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            dim = int(rng.integers(4, 17))
            md = random_dictionary(rng, dim, int(rng.integers(dim, 41)))
            f = rng.normal(size=dim)
            trace = []
            cap = int(rng.integers(1, min(dim, 10) + 1))
            rule = StoppingRule(atom_cap=cap)
            pursue(f[None], md, rule, trace=trace)
            block, residual_norm = run_omp(f, md, rule)
            sses = [f @ f] + [row[4] for row in trace]
            assert all(b <= a + 1e-12 for a, b in zip(sses, sses[1:]))
            # selected atoms are orthogonal to the final residual
            residual = f - synthesis(md, block)
            for addr, _ in block.entries:
                assert abs(md.atom_flat(addr) @ residual) <= 1e-6 * np.linalg.norm(f)

    def test_coefficients_match_pseudo_inverse_on_small_instances(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            n_atoms = int(rng.integers(2, 11))
            md = random_dictionary(rng, dim, n_atoms)
            f = rng.normal(size=dim)
            cap = int(rng.integers(1, min(dim, n_atoms) + 1))
            block, _ = run_omp(f, md, StoppingRule(atom_cap=cap))
            if not block.entries:
                continue
            addresses = [addr for addr, _ in block.entries]
            coeffs = np.array([c for _, c in block.entries])
            np.testing.assert_allclose(
                coeffs, least_squares_coeffs(md, addresses, f), atol=1e-8
            )

    def test_memory_grows_with_atoms_used_not_block_size(self):
        # a 64x64 block has dimension 4096: storage sized to that cap would
        # take 3 * 4096**2 doubles (400 MB); three atoms need a few MB
        d = Dictionary2D(assemble_dictionary(DictionaryKind.DCT2_LINEAR, 64))
        U = d.base.matrix
        f = 40.0 * np.outer(U[:, 0], U[:, 0]) + 3.0 * np.outer(U[:, 5], U[:, 200])
        f += 0.5 * np.outer(U[:, 150], U[:, 9])
        rule = StoppingRule(sse_threshold=1e-12, atom_cap=64 * 64)
        tracemalloc.start()
        try:
            PursuitState(f, capacity=64 * 64)
            state_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            block, _ = run_omp(f, d, rule)
            run_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(block) == 3
        assert state_peak < 2**20
        # a few n x n correlation arrays (n = 326 base atoms, 0.8 MB each)
        assert run_peak < 8 * 2**20

    def test_reorthogonalization_keeps_gram_tight_at_full_depth(self, dict2_linear16):
        rng = np.random.default_rng(41)
        f = rng.normal(size=(16, 16))
        rule = StoppingRule(atom_cap=256)
        state = PursuitState(f, capacity=256)
        for _ in range(256):
            orthogonalize_and_update(state, dict2_linear16, select_atom(state, dict2_linear16))
        Q = state.orthonormal_basis
        deviation = np.max(np.abs(Q.T @ Q - np.eye(state.k)))
        print(f"Gram deviation after {state.k} iterations: {deviation:.3e}")
        assert state.k == 256
        assert deviation < 1e-10


class TestNonFiniteSignals:
    # Each call used to loop forever: the selection maximum of a nan residual
    # is nan, which neither stops the pursuit nor exhausts it. The calls run
    # in a child process, so a pursuit that never returns fails the test
    # after TIMEOUT_S instead of hanging the suite.
    TIMEOUT_S = 20
    CHILD = textwrap.dedent(
        """
        import numpy as np
        from sparseimg import (
            Dictionary2D, DictionaryKind, MatrixDictionary, PursuitState, StoppingRule, assemble_dictionary, run_omp,
        )
        from sparseimg.pursuit import pursue

        class Counted:
            def __init__(self, inner):
                self.inner, self.correlations = inner, 0

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def correlate(self, residual):
                self.correlations += 1
                return self.inner.correlate(residual)

        rule = StoppingRule(sse_threshold=1.0)
        block = np.zeros((8, 8))
        block[3, 5] = np.nan
        stack = np.zeros((5, 4))
        stack[3, 1] = np.inf
        cases = [
            (MatrixDictionary(np.eye(4)), lambda d: run_omp(np.full(4, np.nan), d, rule)),
            (MatrixDictionary(np.eye(4)), lambda d: run_omp(np.array([1.0, np.inf, 0.0, 0.0]), d, rule)),
            (Dictionary2D(assemble_dictionary(DictionaryKind.DCT2_LINEAR, 8)), lambda d: run_omp(block, d, rule)),
            (MatrixDictionary(np.eye(4)), lambda d: pursue(stack, d, rule)),
            (None, lambda d: PursuitState(np.full(4, -np.inf), 4)),
        ]
        for inner, call in cases:
            d = Counted(inner)
            try:
                call(d)
                print("returned", flush=True)
            except ValueError as exc:
                print(f"{exc} | {d.correlations} correlations", flush=True)
        """
    )

    def test_a_signal_that_is_not_finite_is_refused_before_any_correlation(self):
        env = {"PYTHONPATH": str(Path(sparseimg.__file__).resolve().parents[1]), "OMP_NUM_THREADS": "1"}
        try:
            proc = subprocess.run(
                [sys.executable, "-c", self.CHILD], env=env, capture_output=True, text=True, timeout=self.TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            pytest.fail(f"a pursuit did not return within {self.TIMEOUT_S} s")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "signal 0 holds a nan or an inf | 0 correlations",
            "signal 0 holds a nan or an inf | 0 correlations",
            "signal 0 holds a nan or an inf | 0 correlations",
            "signal 3 holds a nan or an inf | 0 correlations",
            "signal holds a nan or an inf | 0 correlations",
        ]
