import itertools
import math
from unittest import mock

import numpy as np
import pytest
import scipy.fft

from sparseimg import (
    ImageGray8,
    TransformCoeffs,
    cdf97_forward,
    cdf97_inverse,
    dct2_block_forward,
    dct2_block_inverse,
    threshold_to_psnr,
)
from sparseimg import baselines
from sparseimg.baselines import dct_matrix, inverse_transform
from sparseimg.codec import psnr

import _corpus
from _oracles import cdf97_analysis_2d
from conftest import synthetic_image


def random_image(rng, n=64):
    return rng.uniform(0.0, 255.0, size=(n, n))


class TestBlockDct:
    def test_matrix_is_orthonormal(self):
        D = dct_matrix(16)
        np.testing.assert_allclose(D @ D.T, np.eye(16), atol=1e-12)

    def test_matches_scipy_dctn(self):
        rng = np.random.default_rng(1)
        block = rng.normal(size=(16, 16))
        mine = dct2_block_forward(block, 16).values
        reference = scipy.fft.dctn(block, type=2, norm="ortho")
        np.testing.assert_allclose(mine, reference, atol=1e-12)

    def test_constant_block_has_single_dc_coefficient(self):
        coeffs = dct2_block_forward(np.full((16, 16), 7.0), 16).values
        assert coeffs[0, 0] == pytest.approx(16 * 7.0, abs=1e-12)
        rest = coeffs.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-10

    def test_round_trip_identity(self):
        rng = np.random.default_rng(2)
        img = random_image(rng)
        coeffs = dct2_block_forward(img, 16)
        np.testing.assert_allclose(dct2_block_inverse(coeffs), img, atol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(3)
        img = random_image(rng)
        coeffs = dct2_block_forward(img, 16).values
        assert np.sum(coeffs**2) == pytest.approx(np.sum(img**2), rel=1e-8)

    def test_blocks_are_independent(self):
        rng = np.random.default_rng(4)
        img = random_image(rng, 32)
        whole = dct2_block_forward(img, 16).values
        corner = dct2_block_forward(img[:16, :16], 16).values
        np.testing.assert_array_equal(whole[:16, :16], corner)

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            dct2_block_forward(np.zeros((24, 24)), 16)


class TestCdf97:
    def test_constant_image_has_zero_detail(self):
        coeffs = cdf97_forward(np.full((64, 64), 9.25), levels=3).values
        detail = coeffs.copy()
        detail[:8, :8] = 0.0  # approximation subband at level 3
        assert np.max(np.abs(detail)) < 1e-10

    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        img = random_image(rng)
        coeffs = cdf97_forward(img, levels=3)
        np.testing.assert_allclose(cdf97_inverse(coeffs), img, atol=1e-9)

    def test_round_trip_five_levels(self):
        rng = np.random.default_rng(6)
        img = random_image(rng, 128)
        coeffs = cdf97_forward(img, levels=5)
        np.testing.assert_allclose(cdf97_inverse(coeffs), img, atol=1e-9)

    def test_impulse_matches_filter_bank_oracle(self):
        img = np.zeros((64, 64))
        img[17, 23] = 1.0
        mine = cdf97_forward(img, levels=1).values
        np.testing.assert_allclose(mine, cdf97_analysis_2d(img), atol=1e-8)

    def test_boundary_impulse_matches_filter_bank_oracle(self):
        img = np.zeros((32, 32))
        img[0, 31] = 1.0
        img[31, 0] = 0.5
        mine = cdf97_forward(img, levels=1).values
        np.testing.assert_allclose(mine, cdf97_analysis_2d(img), atol=1e-8)

    def test_near_orthonormal_scaling(self):
        # the chosen subband scaling keeps white-noise energy within ~10%
        rng = np.random.default_rng(7)
        img = rng.normal(size=(64, 64))
        coeffs = cdf97_forward(img, levels=4).values
        assert np.sum(coeffs**2) == pytest.approx(np.sum(img**2), rel=0.1)

    def test_dims_must_divide(self):
        with pytest.raises(ValueError, match="divisible"):
            cdf97_forward(np.zeros((40, 40)), levels=4)

    def test_levels_validated(self):
        with pytest.raises(ValueError, match="levels"):
            cdf97_forward(np.zeros((64, 64)), levels=0)


class TestThresholdToPsnr:
    def test_unknown_transform_kind(self):
        coeffs = TransformCoeffs(kind="haar", values=np.zeros((4, 4)))
        with pytest.raises(ValueError, match="unknown transform kind 'haar'"):
            inverse_transform(coeffs)

    @pytest.mark.parametrize(
        "transform, target, calls", [("cdf97", 35.0, 10), ("cdf97", 400.0, 11), ("dct", 35.0, 2), ("dct", 400.0, 3)]
    )
    def test_inverse_transforms_per_search(self, transform, target, calls):
        # Each count is probed at most once. CDF 9/7 runs every probe
        # exactly: the binary search over 1,024 counts probes ten of them,
        # the result among them, and an unreachable target's result, all
        # 1,024 kept, is an eleventh. The block DCT probes keep-all for the
        # Parseval rule and then the result; Parseval's identity settles every
        # other probe at 35 dB, and all but two next to the rounding floor,
        # where the result is keep-all again
        img = synthetic_image(32, 32).as_float()
        coeffs = dct2_block_forward(img, 16) if transform == "dct" else cdf97_forward(img, levels=3)
        with mock.patch.object(baselines, "inverse_transform", wraps=inverse_transform) as spy:
            if target < 100.0:
                threshold_to_psnr(coeffs, img, target)
            else:
                with pytest.raises(RuntimeError, match="unreachable even with all coefficients"):
                    threshold_to_psnr(coeffs, img, target)
        assert spy.call_count == calls

    @pytest.mark.parametrize("name", _corpus.corpus.NAMES)
    def test_a_dct_search_on_a_corpus_image_makes_few_inverse_transforms(self, name):
        # 512x512 at 40 dB: the keep-all probe, the result's, and none or
        # one that Parseval leaves open
        data = ImageGray8.from_array(_corpus.corpus.make_image(name, 1)).as_float()
        for L in (16, 8):
            coeffs = dct2_block_forward(data, L)
            with mock.patch.object(baselines, "inverse_transform", wraps=inverse_transform) as spy:
                threshold_to_psnr(coeffs, data, 40.0)
            assert spy.call_count <= 3

    @pytest.mark.parametrize("target", [0.0, -3.0, -math.inf, math.nan])
    @pytest.mark.parametrize("transform", ["dct", "cdf97"])
    def test_target_must_be_positive(self, transform, target):
        # a nan target used to keep all 256 coefficients of this image and
        # report 324.57 dB as a success
        img = np.full((16, 16), 7.0)
        coeffs = dct2_block_forward(img, 16) if transform == "dct" else cdf97_forward(img, levels=2)
        with pytest.raises(ValueError, match="PSNR target must be positive"):
            threshold_to_psnr(coeffs, img, target)

    @staticmethod
    def _refused(coeffs, img, target):
        """The search raises the finite-input ValueError before any inverse transform."""
        with mock.patch.object(baselines, "inverse_transform", wraps=inverse_transform) as spy:
            with pytest.raises(ValueError, match="transform values and image must be finite"):
                threshold_to_psnr(coeffs, img, target)
        spy.assert_not_called()

    @pytest.mark.parametrize(
        "transform, bad, target", [("dct", math.inf, 40.0), ("cdf97", math.inf, 40.0), ("dct", math.nan, 400.0)]
    )
    def test_a_value_that_is_not_finite_reaches_no_target(self, transform, bad, target):
        # keeping it gave a PSNR of -inf or nan, and the search raised
        # "unreachable"; before that the DCT inf raised "math domain error",
        # and the other two returned (1024, nan)
        img = synthetic_image(32, 32).as_float()
        coeffs = dct2_block_forward(img, 16) if transform == "dct" else cdf97_forward(img, levels=2)
        coeffs.values.flat[5] = bad
        self._refused(coeffs, img, target)

    @pytest.mark.parametrize(
        "pixel, bad, target",
        [
            # 255 nan and one 0 for a zero image: keeping nothing gives inf dB,
            # but the first probe kept nans and sent the search upward
            (0.0, (math.nan, 255), 40.0),
            # one inf for a constant-7 image: keeping nothing gives 31.2 dB
            (7.0, (math.inf, 1), 1.0),
        ],
    )
    def test_a_value_that_is_not_finite_is_refused_where_keeping_nothing_reaches_the_target(self, pixel, bad, target):
        img = np.full((16, 16), pixel)
        assert psnr(img, np.zeros_like(img)) >= target
        coeffs = dct2_block_forward(img, 16)
        value, count = bad
        coeffs.values.flat[1 : 1 + count] = value
        self._refused(coeffs, img, target)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("transform", ["dct", "cdf97"])
    def test_a_pixel_that_is_not_finite_is_refused(self, transform, bad):
        img = synthetic_image(32, 32).as_float()
        coeffs = dct2_block_forward(img, 16) if transform == "dct" else cdf97_forward(img, levels=2)
        img[3, 4] = bad
        self._refused(coeffs, img, 40.0)

    def test_finite_values_whose_inverse_is_nan_reach_no_target(self):
        # each column of the first block product overflows to inf, and the
        # second mixes infs of both signs: every probe's PSNR is nan
        values = np.full((4, 4), 1e308)
        coeffs = TransformCoeffs(kind=baselines.DCT_KIND, values=values, block_size=4)
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(psnr(np.zeros((4, 4)), inverse_transform(coeffs)))
            with pytest.raises(RuntimeError, match="unreachable even with all coefficients"):
                threshold_to_psnr(coeffs, np.zeros((4, 4)), 40.0)

    def test_an_image_of_another_shape_is_refused_before_any_probe(self):
        img = synthetic_image(32, 32).as_float()
        coeffs = dct2_block_forward(img, 16)
        with mock.patch.object(baselines, "inverse_transform", wraps=inverse_transform) as spy:
            with pytest.raises(ValueError, match=r"image dimensions differ: \(32, 16\) vs \(32, 32\)"):
                threshold_to_psnr(coeffs, img[:, :16], 40.0)
        assert spy.call_count == 1  # the keep-all residual, before any probe

    @pytest.mark.parametrize("target", [3300.0, 1e6])
    def test_no_probe_is_settled_where_squares_underflow(self, target):
        # the pixels of 1e-162 square to 0, so keeping nothing reads as
        # lossless; Parseval's tail of 4e-162 squared would call it a miss
        values = np.zeros((4, 4))
        values[0, 0] = 4e-162
        coeffs = TransformCoeffs(kind=baselines.DCT_KIND, values=values, block_size=4)
        img = dct2_block_inverse(coeffs)
        assert psnr(img, np.zeros_like(img)) == math.inf
        assert threshold_to_psnr(coeffs, img, target) == (0, math.inf)

    def test_the_rounding_allowance_keeps_a_probe_at_the_floor_exact(self):
        # magnitudes over 15 decades, with the image their exact inverse: the
        # keep-all residual is 0, and only the 2**-30 allowance stops the
        # Parseval rule from settling 15 kept as a miss. The generated cases
        # of test_threshold_properties.py reach such a case only after
        # test_cli_properties.py has run, as Hypothesis mixes constants from
        # the loaded modules into what it draws
        values = np.array(
            [
                [1.63225965e-06, -1.28335419e02, -3.93435033e-13, -1.19039213e02],
                [4.10172119e-10, -4.16750454e-08, 7.91856870e-01, -2.32051540e-08],
                [-7.81063563e-06, 3.13374777e-15, -3.65793477e-02, -4.85936630e-06],
                [-8.61332624e-10, -1.55495083e-01, -2.86752311e-10, 1.45533177e-07],
            ]
        )
        coeffs = TransformCoeffs(kind=baselines.DCT_KIND, values=values, block_size=4)
        assert threshold_to_psnr(coeffs, dct2_block_inverse(coeffs), 400.0) == (15, math.inf)

    def test_keep_all_is_effectively_lossless(self):
        # invertibility makes any realistic target reachable; the keep-all
        # reconstruction sits at float round-off (about 300 dB here)
        img = synthetic_image(32, 32).as_float()
        coeffs = dct2_block_forward(img, 16)
        assert psnr(img, inverse_transform(coeffs)) > 250.0
        kept, achieved = threshold_to_psnr(coeffs, img, 200.0)
        assert achieved >= 200.0
        assert kept <= img.size

    def test_trivial_target_keeps_almost_nothing(self):
        img = synthetic_image(32, 32).as_float()
        coeffs = dct2_block_forward(img, 16)
        kept, achieved = threshold_to_psnr(coeffs, img, 1e-6)
        assert kept <= 1
        assert achieved >= 1e-6

    def test_kept_count_monotone_in_target(self):
        img = synthetic_image(64, 64).as_float()
        coeffs = cdf97_forward(img, levels=3)
        kept = [threshold_to_psnr(coeffs, img, db)[0] for db in (30.0, 38.0, 46.0)]
        assert kept[0] <= kept[1] <= kept[2]

    def test_achieved_meets_target_with_minimal_count(self):
        img = synthetic_image(32, 32).as_float()
        coeffs = dct2_block_forward(img, 16)
        kept, achieved = threshold_to_psnr(coeffs, img, 35.0)
        assert achieved >= 35.0
        if kept:
            # one fewer coefficient misses the target
            flat = coeffs.values.ravel()
            order = np.argsort(-np.abs(flat), kind="stable")
            trimmed = np.zeros_like(flat)
            trimmed[order[: kept - 1]] = flat[order[: kept - 1]]
            reduced = TransformCoeffs(
                kind=coeffs.kind, values=trimmed.reshape(coeffs.values.shape), block_size=16
            )
            assert psnr(img, inverse_transform(reduced)) < 35.0

    def test_magnitude_selection_is_optimal_for_orthonormal_dct(self):
        # exhaustive comparison over all coefficient subsets of size <= 3 on
        # one 8x8 block: reconstruction MSE of the magnitude choice is minimal
        rng = np.random.default_rng(8)
        img = rng.uniform(0.0, 255.0, size=(8, 8))
        coeffs = dct2_block_forward(img, 8)
        flat = coeffs.values.ravel()

        def mse_for(indices) -> float:
            kept = np.zeros_like(flat)
            kept[list(indices)] = flat[list(indices)]
            restored = dct2_block_inverse(
                TransformCoeffs(kind=coeffs.kind, values=kept.reshape(8, 8), block_size=8)
            )
            return float(np.mean((img - restored) ** 2))

        order = np.argsort(-np.abs(flat), kind="stable")
        for count in (1, 2, 3):
            greedy = mse_for(order[:count])
            best = min(mse_for(subset) for subset in itertools.combinations(range(64), count))
            assert greedy <= best + 1e-9
