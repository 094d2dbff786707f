import io
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sparseimg import (
    Dictionary2D,
    DictionaryKind,
    assemble_dictionary,
    build_cosine_dict,
    build_spline_subdict,
    correlate_all,
    eval_bspline,
    sample_prototype,
)
from sparseimg.dictionary import dump_csv

from _oracles import brute_correlations, bspline_fraction, flattened_atoms

GOLDEN = Path(__file__).parent / "data" / "dict_linear_L8.csv"


class TestEvalBspline:
    def test_hat_peak(self):
        assert eval_bspline(2, 1.0) == 1.0

    def test_outside_support_is_zero(self):
        assert eval_bspline(2, -0.5) == 0.0
        assert eval_bspline(2, 2.0) == 0.0
        assert eval_bspline(4, 0.0) == 0.0
        assert eval_bspline(4, 4.5) == 0.0

    @pytest.mark.parametrize(
        "x, expected",
        [(2.0, Fraction(2, 3)), (1.0, Fraction(1, 6)), (0.5, Fraction(1, 48))],
    )
    def test_cubic_pinned_values(self, x, expected):
        assert eval_bspline(4, x) == float(expected)

    @pytest.mark.parametrize("m", [2, 4])
    def test_matches_exact_rational_oracle_on_dyadic_grid(self, m):
        # dyadic arguments are exact floats, so the float path and the
        # Fraction path must round identically
        for num in range(-4, 8 * m + 5):
            x = Fraction(num, 8)
            assert eval_bspline(m, float(x)) == pytest.approx(
                float(bspline_fraction(m, x)), rel=1e-15, abs=1e-300
            )

    def test_unsupported_order_names_allowed(self):
        with pytest.raises(ValueError, match=r"2.*4|4.*2"):
            eval_bspline(3, 1.0)

    def test_nonfinite_argument(self):
        with pytest.raises(ValueError):
            eval_bspline(2, float("nan"))


class TestSamplePrototype:
    def test_hat_dilation_1_is_single_one(self):
        proto = sample_prototype(2, 1)
        assert proto.values.tolist() == [1.0]

    def test_hat_dilation_2(self):
        assert sample_prototype(2, 2).values.tolist() == [0.5, 1.0, 0.5]

    def test_cubic_dilation_1(self):
        assert sample_prototype(4, 1).values.tolist() == [float(Fraction(1, 6)), float(Fraction(2, 3)), float(Fraction(1, 6))]

    def test_cubic_dilation_2(self):
        expected = [
            Fraction(1, 48),
            Fraction(1, 6),
            Fraction(23, 48),
            Fraction(2, 3),
            Fraction(23, 48),
            Fraction(1, 6),
            Fraction(1, 48),
        ]
        assert sample_prototype(4, 2).values.tolist() == [float(v) for v in expected]

    @pytest.mark.parametrize(
        "m, supports", [(2, (1, 3, 5)), (4, (3, 7, 11))]
    )
    def test_supports(self, m, supports):
        assert tuple(sample_prototype(m, d).support for d in (1, 2, 3)) == supports

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_symmetric_positive_odd(self, m, d):
        values = sample_prototype(m, d).values
        assert len(values) % 2 == 1
        assert np.all(values > 0)
        np.testing.assert_allclose(values, values[::-1], rtol=0, atol=1e-15)

    def test_unsupported_order(self):
        with pytest.raises(ValueError, match="unsupported spline order 3"):
            sample_prototype(3, 1)

    def test_dilation_out_of_range(self):
        with pytest.raises(ValueError, match="dilation"):
            sample_prototype(2, 4)
        with pytest.raises(ValueError, match="dilation"):
            sample_prototype(4, 0)


class TestBuildSplineSubdict:
    def test_unit_support_reproduces_euclidean_basis(self):
        atoms = build_spline_subdict(sample_prototype(2, 1), 16)
        assert len(atoms) == 16
        np.testing.assert_array_equal(
            np.column_stack([a.values for a in atoms]), np.eye(16)
        )

    def test_hat_dilation2_count_and_boundary_truncation(self):
        atoms = build_spline_subdict(sample_prototype(2, 2), 16)
        assert len(atoms) == 18
        # leftmost translate keeps a single tail sample and renormalizes to e1;
        # the next one is the truncated tail [1, 1/2, 0, ...] renormalized
        np.testing.assert_array_equal(atoms[0].values, np.eye(16)[0])
        expected = np.zeros(16)
        expected[:2] = [1.0, 0.5]
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(atoms[1].values, expected, atol=1e-15)

    def test_support5_count(self):
        assert len(build_spline_subdict(sample_prototype(2, 3), 16)) == 20

    @pytest.mark.parametrize("m, d", [(2, 2), (2, 3), (4, 2), (4, 3)])
    def test_atoms_unit_norm_nonnegative_and_masked_outside_support(self, m, d):
        atoms = build_spline_subdict(sample_prototype(m, d), 16)
        for atom in atoms:
            np.testing.assert_allclose(np.linalg.norm(atom.values), 1.0, atol=1e-12)
            assert np.all(atom.values >= 0)
            lo, hi = atom.support_start, atom.support_start + atom.support_len
            assert np.all(atom.values[:lo] == 0.0)
            assert np.all(atom.values[hi:] == 0.0)
            assert np.all(atom.values[lo:hi] > 0.0)

    def test_block_shorter_than_support(self):
        with pytest.raises(ValueError, match="support"):
            build_spline_subdict(sample_prototype(4, 3), 8)

    def test_partition_of_unity_on_interior(self):
        # untruncated translates of one dilation, scaled back to prototype
        # height, sum to one at every position covered only by full atoms
        for m in (2, 4):
            for d in (1, 2, 3):
                proto = sample_prototype(m, d)
                s, L = proto.support, 32
                scale = np.linalg.norm(proto.values)
                interior = slice(s - 1, L - s + 1)
                assert interior.stop > interior.start
                for residue in range(d):
                    total = np.zeros(L)
                    for atom in build_spline_subdict(proto, L):
                        t = atom.label - (s - 1)  # translation offset
                        if atom.support_len == s and t % d == residue:
                            total += atom.values * scale
                    np.testing.assert_allclose(
                        total[interior], 1.0, atol=1e-12,
                        err_msg=f"m={m} d={d} residue={residue}",
                    )


class TestBuildCosineDict:
    def test_first_atom_constant(self):
        atoms = build_cosine_dict(16, 32)
        np.testing.assert_array_equal(atoms[0].values, np.full(16, 0.25))

    def test_all_unit_norm(self):
        for atom in build_cosine_dict(16, 32):
            assert abs(np.linalg.norm(atom.values) - 1.0) <= 1e-12

    def test_odd_indexed_atoms_are_orthonormal(self):
        # 1-based odd atoms coincide with the DCT-II rows: brute-force Gram
        atoms = build_cosine_dict(16, 32)
        sub = np.column_stack([atoms[i].values for i in range(0, 32, 2)])
        np.testing.assert_allclose(sub.T @ sub, np.eye(16), atol=1e-12)

    def test_atoms_are_dense(self):
        for atom in build_cosine_dict(16, 32):
            assert atom.support_start == 0
            assert atom.support_len == 16

    def test_block_length_must_be_positive(self):
        with pytest.raises(ValueError, match="block length must be positive, got 0"):
            build_cosine_dict(0, 0)

    def test_redundancy_must_be_two(self):
        with pytest.raises(ValueError, match="redundancy 2"):
            build_cosine_dict(16, 64)


class TestAssembleDictionary:
    def test_linear_atom_count(self, dict1_linear16):
        assert len(dict1_linear16) == 86
        assert dict1_linear16.redundancy == pytest.approx(86 / 16)

    def test_cubic_atom_count(self, dict1_cubic16):
        assert len(dict1_cubic16) == 98

    def test_subdictionary_layout(self, dict1_linear16):
        families = [(a.family, a.sub_dict) for a in dict1_linear16.atoms]
        assert families[:32] == [("cosine", 0)] * 32
        assert families[32:48] == [("spline", 1)] * 16
        assert families[48:66] == [("spline", 3)] * 18
        assert families[66:86] == [("spline", 5)] * 20

    def test_labels_count_translations(self, dict1_linear16):
        labels = [a.label for a in dict1_linear16.atoms[48:66]]
        assert labels == list(range(18))

    def test_deterministic_rebuild_is_bit_identical(self, dict1_linear16):
        rebuilt = assemble_dictionary(DictionaryKind.DCT2_LINEAR, 16)
        np.testing.assert_array_equal(rebuilt.matrix, dict1_linear16.matrix)
        for a, b in zip(rebuilt.atoms, dict1_linear16.atoms):
            np.testing.assert_array_equal(a.values, b.values)

    def test_matrix_stacks_atoms(self, dict1_linear16):
        np.testing.assert_array_equal(
            dict1_linear16.matrix,
            np.column_stack([a.values for a in dict1_linear16.atoms]),
        )

    def test_atoms_are_read_only(self, dict1_linear16):
        with pytest.raises(ValueError):
            dict1_linear16.matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            dict1_linear16.atoms[0].values[0] = 5.0


    def test_gram_is_matrix_gram(self, dict1_cubic16):
        U = dict1_cubic16.matrix
        np.testing.assert_array_equal(dict1_cubic16.gram, U.T @ U)

    @pytest.mark.parametrize(
        "kind, L, twins",
        [
            (DictionaryKind.DCT2_LINEAR, 16, {48: 32, 66: 32, 65: 47, 85: 47, 67: 49, 84: 64}),
            (DictionaryKind.DCT2_CUBIC, 16, {50: 32, 72: 32, 71: 49, 97: 49, 73: 51, 96: 70}),
            (DictionaryKind.DCT2_LINEAR, 8, {24: 16, 34: 16, 33: 23, 45: 23, 35: 25, 44: 32}),
        ],
    )
    def test_canonical_map_names_boundary_twins(self, kind, L, twins):
        # boundary-cut translates of different dilations coincide; each group
        # maps to its smallest index, and canonical atoms are pairwise distinct
        d = assemble_dictionary(kind, L)
        expected = np.arange(len(d))
        expected[list(twins)] = list(twins.values())
        np.testing.assert_array_equal(d.canonical, expected)
        for a, b in twins.items():
            np.testing.assert_allclose(d.matrix[:, a], d.matrix[:, b], atol=1e-13)
        U = d.matrix[:, np.unique(d.canonical)]
        gaps = np.abs(U[:, :, None] - U[:, None, :]).max(axis=0)
        assert np.min(gaps + np.eye(U.shape[1])) > 0.04


class TestDictionary2D:
    def test_flat_addressing_roundtrip(self, dict2_linear16):
        n = dict2_linear16.n_base
        assert dict2_linear16.n_atoms == n * n
        for flat in (0, 1, n, n + 3, n * n - 1):
            assert dict2_linear16.flat_index(dict2_linear16.address_of(flat)) == flat

    def test_atom_unit_frobenius_norm(self, dict2_linear16):
        for flat in (0, 100, 2000, 7395):
            assert abs(np.linalg.norm(dict2_linear16.atom_flat(flat)) - 1.0) <= 1e-12

    def test_planted_atom_correlation_is_global_max(self, dict2_linear16):
        U = dict2_linear16.base.matrix
        corr = correlate_all(dict2_linear16, np.outer(U[:, 3], U[:, 7]))
        assert corr[3, 7] == pytest.approx(1.0, abs=1e-12)
        assert np.unravel_index(np.argmax(np.abs(corr)), corr.shape) == (3, 7)

    def test_zero_block_correlates_to_zero(self, dict2_linear16):
        np.testing.assert_array_equal(
            correlate_all(dict2_linear16, np.zeros((16, 16))), np.zeros((86, 86))
        )

    def test_separable_equals_brute_force(self, dict2_linear16):
        rng = np.random.default_rng(7)
        for _ in range(5):
            block = rng.normal(size=(16, 16))
            fast = correlate_all(dict2_linear16, block)
            np.testing.assert_allclose(fast, brute_correlations(dict2_linear16, block), atol=1e-10)

    def test_dimension_mismatch(self, dict2_linear16):
        with pytest.raises(ValueError, match="block"):
            correlate_all(dict2_linear16, np.zeros((8, 8)))

    @pytest.mark.parametrize("address", [(86, 0), (0, 86), (-1, 0), (0, -1)])
    def test_address_out_of_range(self, dict2_linear16, address):
        with pytest.raises(IndexError, match="out of range for 86 base atoms"):
            dict2_linear16.flat_index(address)

    def test_stacked_correlate_checks_the_block_shape(self, dict2_linear16):
        with pytest.raises(ValueError, match=r"expected a stack of \(16, 16\) blocks, got \(2, 8, 8\)"):
            dict2_linear16.correlate(np.zeros((2, 8, 8)))

    @pytest.mark.parametrize("L, n_distinct", [(16, 80), (8, 40)])
    def test_redundant_addresses_have_a_twin_factor(self, L, n_distinct):
        d = Dictionary2D(assemble_dictionary(DictionaryKind.DCT2_LINEAR, L))
        redundant = np.setdiff1d(np.arange(d.n_atoms), d.candidates)
        assert len(redundant) == d.n_atoms - n_distinct**2
        canonical = d.base.canonical
        for flat in redundant:
            i, j = d.address_of(flat)
            assert canonical[i] != i or canonical[j] != j

    def test_stacked_correlate_covers_the_candidates_in_order(self, dict2_cubic16):
        d = dict2_cubic16
        assert np.all(np.diff(d.candidates) > 0)
        # both factors of every candidate are canonical; the other atoms have a twin factor
        I, J = np.divmod(d.candidates, d.n_base)
        assert np.array_equal(d.base.canonical[I], I) and np.array_equal(d.base.canonical[J], J)
        blocks = np.random.default_rng(23).normal(size=(3, 16, 16))
        for block, row in zip(blocks, d.correlate(blocks)):
            np.testing.assert_allclose(row, correlate_all(d, block).ravel()[d.candidates], atol=1e-12)

    def test_gram_and_synthesize_match_dense_atoms(self, dict2_cubic16):
        dense = flattened_atoms(dict2_cubic16)
        rng = np.random.default_rng(19)
        flats = rng.choice(dict2_cubic16.n_atoms, size=12, replace=False)
        coeffs = rng.normal(size=12)
        np.testing.assert_allclose(
            dict2_cubic16.gram(flats, flats[3]), dense[flats] @ dense[flats[3]], atol=1e-14
        )
        np.testing.assert_allclose(
            dict2_cubic16.synthesize(flats, coeffs).ravel(), coeffs @ dense[flats], atol=1e-13
        )

    def test_synthesize_matches_outer_products(self, dict2_linear16):
        U = dict2_linear16.base.matrix
        flats = np.array([dict2_linear16.flat_index((2, 5)), dict2_linear16.flat_index((40, 3))])
        expected = 1.5 * np.outer(U[:, 2], U[:, 5]) - 0.25 * np.outer(U[:, 40], U[:, 3])
        np.testing.assert_allclose(dict2_linear16.synthesize(flats, np.array([1.5, -0.25])), expected, atol=1e-15)


class TestDumpCsv:
    def test_round_trip_against_golden_file(self):
        stream = io.StringIO()
        dump_csv(assemble_dictionary(DictionaryKind.DCT2_LINEAR, 8), stream)
        assert stream.getvalue() == GOLDEN.read_text()

    def test_column_header(self, dict1_linear16):
        stream = io.StringIO()
        dump_csv(dict1_linear16, stream)
        header = stream.getvalue().splitlines()[0]
        assert header.startswith("family,sub_dict,label,support_start,support_len,v0,")
