"""Acceptance suite: one test per release criterion, with a PASS line each.

The sparsity-gain and table-vicinity criteria need the classic 512x512
grayscale test set (boat, bridge, lena, mandrill, peppers). Those images are
not redistributable; drop them as binary PGMs into ``data/`` (or point
``SPARSEIMG_TEST_IMAGES`` at a directory) to activate the checks. Each
missing image is skipped individually and the remaining checks still run.
Bundled scikit-image photographs stand in as natural images for the
end-to-end codec checks and a supplementary gain measurement. The codec check
(criterion 8) also runs on the benchmark's four seeded synthetic images, so it
never skips.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from sparseimg import (
    Dictionary2D,
    DictionaryKind,
    ImageGray8,
    MatrixDictionary,
    PursuitExhaustedError,
    PursuitState,
    assemble_dictionary,
    cdf97_forward,
    cdf97_inverse,
    correlate_all,
    dct2_block_forward,
    dct2_block_inverse,
    decode,
    encode,
    eval_bspline,
    orthogonalize_and_update,
    read_pgm,
    sample_prototype,
    select_atom,
    threshold_to_psnr,
)
from sparseimg.codec import deserialize, psnr, serialize

from _corpus import corpus
from _oracles import bspline_fraction, flattened_atoms, least_squares_coeffs
from conftest import CLASSIC_DIR

CLASSIC_NAMES = ("boat", "bridge", "lena", "mandrill", "peppers")
_ALIASES = {"mandrill": ("mandrill", "mandril")}

RUNTIME_BUDGET_SECONDS = 600.0

_cr_cache: dict[tuple[str, str], float] = {}
_image_cache: dict[str, ImageGray8] = {}


def classic_image(name: str) -> ImageGray8:
    if name not in _image_cache:
        for candidate in _ALIASES.get(name, (name,)):
            path = CLASSIC_DIR / f"{candidate}.pgm"
            if path.exists():
                img = read_pgm(path)
                if (img.width, img.height) != (512, 512):
                    pytest.skip(f"{path} is {img.width}x{img.height}, expected 512x512")
                _image_cache[name] = img
                break
        else:
            pytest.skip(
                f"classic test image {name!r} not found under {CLASSIC_DIR} "
                "(set SPARSEIMG_TEST_IMAGES or create data/)"
            )
    return _image_cache[name]


def available_classics() -> list[str]:
    found = []
    for name in CLASSIC_NAMES:
        for candidate in _ALIASES.get(name, (name,)):
            if (CLASSIC_DIR / f"{candidate}.pgm").exists():
                found.append(name)
                break
    return found


def bundled_image(name: str) -> ImageGray8:
    data = pytest.importorskip("skimage.data")
    return ImageGray8.from_array(getattr(data, name)())


def compression_ratio(img: ImageGray8, method: str, *, label: str) -> float:
    key = (label, method)
    if key not in _cr_cache:
        pixels = img.width * img.height
        if method in ("omp_linear", "omp_cubic"):
            kind = (
                DictionaryKind.DCT2_LINEAR
                if method == "omp_linear"
                else DictionaryKind.DCT2_CUBIC
            )
            dict2d = Dictionary2D(assemble_dictionary(kind, 16))
            started = time.monotonic()
            _, report = encode(img, dict2d, 40.0, image_name=label)
            elapsed = time.monotonic() - started
            assert elapsed <= RUNTIME_BUDGET_SECONDS, (
                f"{label}/{method} took {elapsed:.0f}s, over the {RUNTIME_BUDGET_SECONDS:.0f}s budget"
            )
            assert report.achieved_psnr >= 40.0
            _cr_cache[key] = report.compression_ratio
        elif method == "dct":
            coeffs = dct2_block_forward(img.as_float(), 16)
            kept, achieved = threshold_to_psnr(coeffs, img.as_float(), 40.0)
            assert achieved >= 40.0
            _cr_cache[key] = pixels / kept
        elif method == "cdf97":
            coeffs = cdf97_forward(img.as_float(), 5)
            kept, achieved = threshold_to_psnr(coeffs, img.as_float(), 40.0)
            assert achieved >= 40.0
            _cr_cache[key] = pixels / kept
        else:
            raise ValueError(method)
    return _cr_cache[key]


class TestCriterion1SparsityGain:
    @pytest.mark.parametrize("name", CLASSIC_NAMES)
    def test_omp_at_least_1_5x_both_baselines(self, name):
        img = classic_image(name)
        cr_omp = compression_ratio(img, "omp_linear", label=name)
        cr_dct = compression_ratio(img, "dct", label=name)
        cr_wav = compression_ratio(img, "cdf97", label=name)
        assert cr_omp >= 1.5 * cr_dct, f"{name}: {cr_omp:.2f} vs DCT {cr_dct:.2f}"
        assert cr_omp >= 1.5 * cr_wav, f"{name}: {cr_omp:.2f} vs CDF97 {cr_wav:.2f}"
        print(
            f"PASS criterion 1 [{name}]: CR omp_linear={cr_omp:.2f}, "
            f"dct={cr_dct:.2f} (x{cr_omp / cr_dct:.2f}), "
            f"cdf97={cr_wav:.2f} (x{cr_omp / cr_wav:.2f})"
        )


class TestCriterion2TableVicinity:
    def test_lena_compression_ratios_near_published(self):
        img = classic_image("lena")
        cr_omp = compression_ratio(img, "omp_linear", label="lena")
        cr_dct = compression_ratio(img, "dct", label="lena")
        assert 11.78 * 0.75 <= cr_omp <= 11.78 * 1.25, f"omp_linear CR {cr_omp:.2f}"
        assert 6.5 * 0.85 <= cr_dct <= 6.5 * 1.15, f"dct CR {cr_dct:.2f}"
        print(
            f"PASS criterion 2: lena CR omp_linear={cr_omp:.2f} "
            f"(published 11.78 +/-25%), dct={cr_dct:.2f} (published 6.5 +/-15%)"
        )


class TestCriterion3LinearVsCubicOrdering:
    def test_hat_dictionary_at_least_as_sparse_on_most_images(self):
        names = available_classics()
        if not names:
            pytest.skip(
                f"no classic test images under {CLASSIC_DIR}; "
                "criterion 3 needs at least one of "  + ", ".join(CLASSIC_NAMES)
            )
        wins = 0
        details = []
        for name in names:
            img = classic_image(name)
            cr_lin = compression_ratio(img, "omp_linear", label=name)
            cr_cub = compression_ratio(img, "omp_cubic", label=name)
            wins += cr_lin >= cr_cub
            details.append(f"{name}: linear={cr_lin:.2f} cubic={cr_cub:.2f}")
        # published ordering holds on at least 4 of the 5 images; scale the
        # allowance to however many are locally available
        allowed_losses = len(names) // 5
        assert len(names) - wins <= allowed_losses, (
            f"linear beat cubic on only {wins} of {len(names)}: {details}"
        )
        print(f"PASS criterion 3: linear >= cubic on {wins}/{len(names)} ({'; '.join(details)})")


class TestCriterion4DictionaryCounts:
    def test_atom_counts_and_redundancy(self):
        linear = assemble_dictionary(DictionaryKind.DCT2_LINEAR, 16)
        cubic = assemble_dictionary(DictionaryKind.DCT2_CUBIC, 16)
        assert len(linear) == 86
        assert len(cubic) == 98
        assert linear.redundancy == pytest.approx(5.375)
        print(
            f"PASS criterion 4: {len(linear)} linear atoms, {len(cubic)} cubic atoms, "
            f"redundancy {linear.redundancy:.3f}"
        )


class TestCriterion5PursuitProperties:
    def test_200_random_instances(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(200):
            dim = int(rng.integers(2, 17))
            n_atoms = int(rng.integers(4, 41))
            atoms = rng.normal(size=(dim, n_atoms))
            md = MatrixDictionary(atoms / np.linalg.norm(atoms, axis=0))
            f = rng.normal(size=dim)
            steps = int(rng.integers(1, min(dim, 12) + 1))

            state = PursuitState(f, capacity=steps)
            sses = [state.residual_sse]
            while state.k < steps:
                before = state.k
                try:
                    address = select_atom(state, md)
                except PursuitExhaustedError:
                    break  # fewer acceptable atoms than requested steps
                orthogonalize_and_update(state, md, address)
                if state.k == before:
                    continue  # dependent atom masked
                assert state.residual_sse <= sses[-1] + 1e-12 * sses[0]
                sses.append(state.residual_sse)
            if state.k == 0:
                continue
            checked += 1

            coeffs = state.coefficients
            oracle = least_squares_coeffs(md, state.selected, f)
            np.testing.assert_allclose(coeffs, oracle, atol=1e-8)

            A = np.column_stack([md.atom_flat(i) for i in state.selected])
            np.testing.assert_allclose(
                state.dual_basis.T @ A, np.eye(state.k), atol=1e-6
            )

            approx = A @ coeffs
            energy_gap = abs((f @ f) - (approx @ approx + state.residual_sse))
            assert energy_gap <= 1e-8 * (f @ f)
        assert checked >= 150
        print(f"PASS criterion 5: {checked} pursuits match the normal-equations oracle")


class TestCriterion6SeparableCorrelation:
    def test_50_random_residuals(self, dict2_linear16):
        dense = flattened_atoms(dict2_linear16)
        n = dict2_linear16.n_base
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            block = rng.normal(size=(16, 16))
            fast = correlate_all(dict2_linear16, block)
            brute = (dense @ block.ravel()).reshape(n, n)
            worst = max(worst, float(np.max(np.abs(fast - brute))))
        assert worst <= 1e-10
        print(f"PASS criterion 6: separable vs dense max deviation {worst:.2e}")


class TestCriterion7TransformRoundTrips:
    def test_round_trips_and_vanishing_moments(self):
        rng = np.random.default_rng(13)
        worst_dct = worst_wav = 0.0
        for _ in range(5):
            img = rng.uniform(0.0, 255.0, size=(64, 64))
            back_dct = dct2_block_inverse(dct2_block_forward(img, 16))
            worst_dct = max(worst_dct, float(np.max(np.abs(back_dct - img))))
            back_wav = cdf97_inverse(cdf97_forward(img, levels=3))
            worst_wav = max(worst_wav, float(np.max(np.abs(back_wav - img))))
        assert worst_dct <= 1e-9
        assert worst_wav <= 1e-9

        const = np.full((64, 64), 77.0)
        coeffs = cdf97_forward(const, levels=3).values
        detail = coeffs.copy()
        detail[:8, :8] = 0.0
        detail_peak = float(np.max(np.abs(detail)))
        assert detail_peak < 1e-10
        print(
            f"PASS criterion 7: round-trip errors dct={worst_dct:.2e}, "
            f"cdf97={worst_wav:.2e}; constant-image detail peak {detail_peak:.2e}"
        )


class TestCriterion8Codec:
    def _images(self):
        images = {name: classic_image(name) for name in available_classics()}
        for name in ("camera", "moon"):
            try:
                images[name] = bundled_image(name)
            except pytest.skip.Exception:
                pass
        for name in corpus.NAMES:  # the seeded synthetic images need no files
            images[f"{name}-seed1"] = ImageGray8.from_array(corpus.make_image(name, 1))
        return images

    def test_decode_meets_target_and_container_round_trips(self, dict2_linear16):
        worst = float("inf")
        for name, img in self._images().items():
            enc, report = encode(img, dict2_linear16, 40.0, image_name=name)
            achieved = psnr(img, decode(enc, dict2_linear16))
            assert achieved >= 40.0, f"{name}: {achieved:.2f} dB"
            worst = min(worst, achieved)
            payload = serialize(enc)
            assert serialize(deserialize(payload)) == payload
        print(f"PASS criterion 8: all decoded images >= 40 dB (worst {worst:.2f} dB)")


class TestCriterion9BsplineOracle:
    def test_sampled_prototypes_match_exact_rationals(self):
        pinned = {
            (2, 1): [Fraction(1)],
            (2, 2): [Fraction(1, 2), Fraction(1), Fraction(1, 2)],
            (4, 1): [Fraction(1, 6), Fraction(2, 3), Fraction(1, 6)],
            (4, 2): [
                Fraction(1, 48),
                Fraction(1, 6),
                Fraction(23, 48),
                Fraction(2, 3),
                Fraction(23, 48),
                Fraction(1, 6),
                Fraction(1, 48),
            ],
        }
        for (m, d), expected in pinned.items():
            values = sample_prototype(m, d).values
            assert values.tolist() == [float(v) for v in expected], f"m={m} d={d}"
            oracle = [bspline_fraction(m, Fraction(k, d)) for k in range(1, m * d)]
            assert oracle == expected
        # direct evaluation agrees with the rational oracle on the same grid
        for m in (2, 4):
            for d in (1, 2, 3):
                for k in range(1, m * d):
                    exact = float(bspline_fraction(m, Fraction(k, d)))
                    assert eval_bspline(m, k / d) == pytest.approx(exact, rel=1e-15)
        print("PASS criterion 9: sampled prototypes equal the exact rational values")


class TestSupplementaryBundledImages:
    """Real-photograph evidence that runs without the classic test set."""

    @pytest.mark.parametrize("name", ["camera", "grass"])
    def test_sparsity_gain_on_bundled_photos(self, name):
        img = bundled_image(name)
        cr_omp = compression_ratio(img, "omp_linear", label=name)
        cr_dct = compression_ratio(img, "dct", label=name)
        cr_wav = compression_ratio(img, "cdf97", label=name)
        assert cr_omp >= 1.5 * cr_dct
        assert cr_omp >= 1.5 * cr_wav
        print(
            f"supplementary: {name} CR omp_linear={cr_omp:.2f}, dct={cr_dct:.2f}, "
            f"cdf97={cr_wav:.2f}"
        )

    def test_linear_vs_cubic_on_camera(self):
        img = bundled_image("camera")
        cr_lin = compression_ratio(img, "omp_linear", label="camera")
        cr_cub = compression_ratio(img, "omp_cubic", label="camera")
        assert cr_lin >= 0.98 * cr_cub
        print(f"supplementary: camera linear={cr_lin:.2f} cubic={cr_cub:.2f}")
