import gc
import math
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sparseimg import (
    Dictionary2D,
    DictionaryKind,
    EncodedImage,
    ImageGray8,
    PursuitExhaustedError,
    StoppingRule,
    assemble_dictionary,
    decode,
    encode,
    psnr,
    psnr_to_block_sse,
    read_pgm,
    run_omp,
    write_pgm,
)
from sparseimg.codec import (
    MAX_ENTRIES,
    MAX_N_BASE,
    ContainerError,
    DictionaryMismatchError,
    clamp_to_u8,
    deserialize,
    serialize,
    to_blocks,
)
from sparseimg import codec
from sparseimg.codec import SparsityReport
from sparseimg.cli import append_report, read_report

import _corpus
import _oracles
from conftest import synthetic_image


def retained_bytes(make):
    """``make()``, and the bytes allocated during the call and still held after it."""
    gc.collect()
    tracemalloc.start()
    try:
        out = make()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestPsnr:
    def test_identical_images_are_infinite(self):
        img = np.full((4, 4), 17.0)
        assert psnr(img, img) == math.inf

    def test_unit_mse(self):
        a = np.zeros((8, 8))
        assert psnr(a, a + 1.0) == pytest.approx(48.1308, abs=1e-4)

    def test_full_scale_error_is_zero_db(self):
        a = np.zeros((8, 8))
        assert psnr(a, a + 255.0) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            psnr(np.zeros((4, 4)), np.zeros((4, 8)))

    def test_accepts_image_objects(self):
        img = synthetic_image(16, 16)
        assert psnr(img, img.as_float()) == math.inf

    def test_an_infinite_mse_is_minus_infinity(self):
        # 255**2 / inf is 0, whose logarithm used to raise "math domain error"
        assert psnr(np.zeros((2, 2)), np.array([[math.inf, 0.0], [0.0, 0.0]])) == -math.inf
        assert math.isnan(psnr(np.zeros((2, 2)), np.array([[math.nan, 0.0], [0.0, 0.0]])))

    @pytest.mark.parametrize("error, db", [(1e-150, 3048.1308036), (1e-153, 3108.1308036)])
    def test_a_positive_mse_is_finite(self, error, db):
        # 255**2 / mse overflows below an MSE of about 3.6e-304, and an MSE
        # of 1e-306 used to read as inf, the PSNR of equal images
        assert psnr(np.zeros((2, 2)), np.full((2, 2), error)) == pytest.approx(db, abs=1e-6)


class TestPsnrToBlockSse:
    def test_reference_value_at_40db(self):
        assert psnr_to_block_sse(40.0, 16) == pytest.approx(1664.64, abs=1e-9)

    def test_zero_target_rejected_but_tiny_allowed(self):
        with pytest.raises(ValueError):
            psnr_to_block_sse(0.0, 1)
        assert psnr_to_block_sse(1e-9, 1) == pytest.approx(65025.0, rel=1e-6)

    def test_monotone_in_target(self):
        thresholds = [psnr_to_block_sse(db, 16) for db in (20, 30, 40, 50)]
        assert all(b < a for a, b in zip(thresholds, thresholds[1:]))

    def test_per_block_threshold_implies_global_target(self, dict2_linear16):
        img = synthetic_image(32, 32)
        enc, report = encode(img, dict2_linear16, 37.0)
        assert psnr(img, decode(enc, dict2_linear16)) >= 37.0


class TestEncode:
    def test_constant_image_uses_one_dc_atom_per_block(self, dict2_linear16):
        img = ImageGray8.from_array(np.full((32, 32), 128, np.uint8))
        enc, report = encode(img, dict2_linear16, 40.0)
        assert [len(b) for b in enc.blocks] == [1, 1, 1, 1]
        for block in enc.blocks:
            assert block.entries == [((0, 0), 2048.0)]
        assert report.total_atoms == 4
        assert report.compression_ratio == 256.0
        assert report.achieved_psnr == math.inf
        np.testing.assert_allclose(decode(enc, dict2_linear16), 128.0, atol=1e-10)

    def test_blank_image_holds_no_atoms(self):
        d = Dictionary2D(assemble_dictionary(DictionaryKind.DCT2_LINEAR, 8))
        enc, report = encode(ImageGray8.from_array(np.zeros((16, 16), np.uint8)), d, 40.0)
        assert enc.counts.tolist() == [0, 0, 0, 0]
        assert report.total_atoms == 0
        assert report.compression_ratio == math.inf
        assert report.achieved_psnr == math.inf
        back = deserialize(serialize(enc))
        assert back == enc
        assert decode(back, d).tobytes() == np.zeros((16, 16)).tobytes()

    def test_reaches_target(self, dict2_linear16, small_image):
        enc, report = encode(small_image, dict2_linear16, 40.0)
        assert report.achieved_psnr >= 40.0
        assert psnr(small_image, decode(enc, dict2_linear16)) == pytest.approx(
            report.achieved_psnr, abs=1e-9
        )

    def test_histogram_and_totals_agree(self, dict2_linear16, small_image):
        enc, report = encode(small_image, dict2_linear16, 38.0)
        counts = [len(b) for b in enc.blocks]
        assert report.total_atoms == sum(counts)
        assert sum(report.block_histogram.values()) == len(enc.blocks)
        assert report.compression_ratio == report.pixel_count / report.total_atoms

    def test_indivisible_dimensions_rejected(self, dict2_linear16):
        img = ImageGray8.from_array(np.zeros((24, 32), np.uint8))
        with pytest.raises(ValueError, match="divisible"):
            encode(img, dict2_linear16, 40.0)

    @pytest.mark.parametrize("L", [16, 8])
    def test_blocks_do_not_depend_on_their_group(self, L):
        # The image's blocks are pursued in 6 groups of 21-22 (L = 16) or
        # 85-86 (L = 8) consecutive blocks, the tile's in one group of its
        # own and run_omp's in groups of one: each block must come out bit
        # for bit the same.
        d = Dictionary2D(assemble_dictionary(DictionaryKind.DCT2_LINEAR, L))
        noise = np.random.default_rng(6).normal(0.0, 6.0, size=(128, 256))
        pixels = np.clip(np.rint(synthetic_image(128, 256).as_float() + noise), 0, 255)
        image = ImageGray8.from_array(pixels.astype(np.uint8))
        whole, _ = encode(image, d, 40.0)
        ty, tx = 64, 128
        tile, _ = encode(ImageGray8.from_array(pixels[ty : ty + 64, tx : tx + 64].astype(np.uint8)), d, 40.0)
        rule = StoppingRule(sse_threshold=psnr_to_block_sse(40.0, L), atom_cap=L * L)
        per, across = 64 // L, 256 // L
        for n, block in enumerate(tile.blocks):
            by, bx = ty // L + n // per, tx // L + n % per
            alone, _ = run_omp(pixels[by * L : (by + 1) * L, bx * L : (bx + 1) * L], d, rule)
            for other in (whole.blocks[by * across + bx], alone):
                assert [a for a, _ in other.entries] == [a for a, _ in block.entries]
                assert np.array([c for _, c in other.entries]).tobytes() == np.array(
                    [c for _, c in block.entries]
                ).tobytes()

    def test_peak_memory_is_bounded_by_the_group_budget(self, dict2_cubic16):
        # Noise over texture takes up to ~90 atoms per block. The encoded
        # columns hold about 0.3 MB (20,079 atoms). The 256 blocks make 16 groups of 16
        # blocks, each with about 0.35 MB: its rows of the correlation stacks
        # (correlations, magnitudes, target correlations; ~70 KB each) and a
        # factor of up to 128 x 130 doubles (133 KB), briefly twice when it
        # grows.
        rng = np.random.default_rng(0)
        y, x = np.mgrid[0:256, 0:256]
        pixels = 128.0 + 40.0 * np.sin(x / 3.0) * np.cos(y / 5.0) + rng.normal(0.0, 12.0, (256, 256))
        image = ImageGray8.from_array(np.clip(pixels, 0, 255).astype(np.uint8))
        tracemalloc.start()
        try:
            enc, report = encode(image, dict2_cubic16, 40.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(report.block_histogram) > 64
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("L", [16, 8])
    def test_an_encoded_image_retains_at_most_32_bytes_per_atom(self, L):
        # Its columns take 16 bytes per atom (flat address and coefficient)
        # and 8 per block; a tuple per atom took about 150.
        image = ImageGray8.from_array(_corpus.corpus.make_image("mixed", 1)[:256, :256])
        d = _corpus.dictionary(DictionaryKind.DCT2_LINEAR, L)
        encode(ImageGray8.from_array(np.zeros((L, L), np.uint8)), d, 40.0)  # first-call set-up
        (enc, report), encoded = retained_bytes(lambda: encode(image, d, 40.0))
        payload = serialize(enc)
        del enc
        _, parsed = retained_bytes(lambda: deserialize(payload))
        assert report.total_atoms > 10_000
        assert encoded <= 32 * report.total_atoms
        assert parsed <= 32 * report.total_atoms

    def test_trace_collects_rows_per_block(self, dict2_linear16, small_image):
        trace = []
        enc, _ = encode(small_image, dict2_linear16, 30.0, trace=trace)
        assert len(trace) == sum(len(b) for b in enc.blocks)
        blocks_seen = [row[0] for row in trace]
        assert blocks_seen == sorted(blocks_seen)
        # per-block iteration counters restart at one
        first = [row for row in trace if row[0] == 0]
        assert [row[1] for row in first] == list(range(1, len(first) + 1))

    @staticmethod
    def encode_one_full_block(sse):
        """``encode`` at 40 dB of an 8x8 image whose one block the pursuit
        returns holding all 64 atoms, with residual SSE ``sse``."""
        d = _corpus.dictionary(DictionaryKind.DCT2_LINEAR, 8)
        pursued = (np.array([64]), d.candidates[:64], np.ones(64), np.array([sse]))
        with mock.patch("sparseimg.codec.pursue", return_value=pursued):
            return encode(ImageGray8.from_array(np.zeros((8, 8), np.uint8)), d, 40.0)

    def test_a_full_block_one_ulp_over_its_budget_misses_it(self):
        threshold = psnr_to_block_sse(40.0, 8)
        over = np.nextafter(threshold, np.inf)
        assert math.sqrt(over) == math.sqrt(threshold)  # a test on the norms would let it pass
        with pytest.raises(PursuitExhaustedError, match=r"^block \(0, 0\): residual SSE .* with 64 atoms$") as caught:
            self.encode_one_full_block(over)
        assert caught.value.index == 0

    def test_a_full_block_at_its_budget_meets_it(self):
        enc, report = self.encode_one_full_block(psnr_to_block_sse(40.0, 8))
        assert enc.counts.tolist() == [64]
        assert report.total_atoms == 64


class TestDecode:
    def test_atom_image_reconstructs_exactly(self, dict2_linear16):
        # 200 * (e3 x e5) is integral and is itself a 2D atom (the unit-support
        # spline sub-dictionary starts at base index 32)
        pixels = np.zeros((16, 16), np.uint8)
        pixels[3, 5] = 200
        img = ImageGray8.from_array(pixels)
        enc, _ = encode(img, dict2_linear16, 40.0)
        assert enc.blocks[0].entries == [((32 + 3, 32 + 5), 200.0)]
        np.testing.assert_allclose(
            decode(enc, dict2_linear16), img.as_float(), atol=1e-6
        )

    @pytest.mark.parametrize("L", [16, 8])
    def test_is_per_block_reconstruction_byte_for_byte(self, L):
        # every corpus crop, with each dictionary the corpus encodes at L:
        # one-atom blocks (edges, gradients), and 2 to 14 distinct atom counts
        for name in _corpus.corpus.NAMES:
            for kind in [kind for kind, side in _corpus.CONFIGS if side == L]:
                enc, _ = _corpus.encoded(name, kind, L)
                d = _corpus.dictionary(kind, L)
                want = np.zeros((enc.height, enc.width))
                grid = to_blocks(want, L)
                for n, block in enumerate(enc.blocks):
                    flats = np.array([d.flat_index(address) for address, _ in block.entries], dtype=np.intp)
                    grid[divmod(n, grid.shape[1])] = d.synthesize(flats, np.array([c for _, c in block.entries]))
                assert decode(enc, d).tobytes() == want.tobytes(), f"{name}, {kind.value}"

    def test_decode_of_a_whole_image_peaks_below_8_mb(self):
        # The output is 2 MiB. A decode that gathered the 1D rows of every atom
        # at once would add 2 x 7.2 MiB for this container's 58,708 atoms.
        d = _corpus.dictionary(DictionaryKind.DCT2_LINEAR, 16)
        enc, _ = encode(ImageGray8.from_array(_corpus.corpus.make_image("mixed", 1)), d, 40.0)
        gc.collect()
        tracemalloc.start()
        try:
            decode(enc, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_synthesizes_each_block_at_its_own_atom_count(self, dict2_linear16, small_image, monkeypatch):
        # BLAS may sum a zero-padded block in another order than the block
        # itself, so no block is widened to the count of another.
        # Each product is one np.matmul of an (n, L, k) stack by an (n, k, L) one.
        enc, _ = encode(small_image, dict2_linear16, 40.0)
        calls = []
        matmul = np.matmul

        def recording(a, b, **kwargs):
            calls.append((a.shape[0], a.shape[-1]))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        decode(enc, dict2_linear16)
        assert sorted(k for _, k in calls) == sorted(set(enc.counts.tolist()))
        assert sum(n for n, _ in calls) == len(enc.counts)

    def test_decode_of_a_whole_image_at_block_8_peaks_below_8_mb(self):
        # The output is 2 MiB, and this container holds 4,096 blocks.
        d = _corpus.dictionary(DictionaryKind.DCT2_LINEAR, 8)
        enc, _ = encode(ImageGray8.from_array(_corpus.corpus.make_image("mixed", 1)), d, 40.0)
        gc.collect()
        tracemalloc.start()
        try:
            decode(enc, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_runs_split_anywhere_give_the_same_pixels(self, monkeypatch):
        # 64 blocks at L = 8 with 0 to 19 atoms, a fifth of them empty. The
        # budgets put each block in a run of its own, end a run exactly where
        # the empty blocks end, and split groups inside.
        rng = np.random.default_rng(7)
        d = _corpus.dictionary(DictionaryKind.DCT2_LINEAR, 8)
        counts = np.where(rng.random(64) < 0.2, 0, rng.integers(1, 20, 64))
        enc = EncodedImage(
            64, 64, 8, DictionaryKind.DCT2_LINEAR, d.n_base, 40.0,
            counts, rng.choice(d.candidates, counts.sum()), rng.normal(0.0, 50.0, counts.sum()),
        )
        whole = decode(enc, d)
        runs = []
        factors = Dictionary2D.factors

        def counting(self, flats, coeffs):
            runs.append(len(flats))
            return factors(self, flats, coeffs)

        monkeypatch.setattr(Dictionary2D, "factors", counting)
        empty = int((counts == 0).sum()) * 64  # the floats of the empty blocks' products
        split = []  # all held, so that no decode reuses another's pixels
        for budget in (1, empty, 1000, 5000):
            monkeypatch.setattr(codec, "RUN_FLOATS", budget)
            runs.clear()
            split.append(decode(enc, d))
            assert len(runs) > 1
            if budget == empty:
                assert runs[0] == 0  # the first run holds the empty blocks and nothing else
            assert split[-1].tobytes() == whole.tobytes(), f"run budget {budget}"

    def test_empty_block_is_zero(self, dict2_linear16):
        enc = EncodedImage(
            width=16,
            height=16,
            block_size=16,
            kind=DictionaryKind.DCT2_LINEAR,
            n_base=86,
            target_psnr=40.0,
            counts=[0],
            flats=[],
            coeffs=[],
        )
        np.testing.assert_array_equal(decode(enc, dict2_linear16), np.zeros((16, 16)))

    def test_kind_mismatch(self, dict2_cubic16, dict2_linear16, small_image):
        enc, _ = encode(small_image, dict2_linear16, 35.0)
        with pytest.raises(DictionaryMismatchError):
            decode(enc, dict2_cubic16)

    @pytest.mark.parametrize(
        "kind, n_base, block, expects",
        [
            (DictionaryKind.DCT2_CUBIC, 86, 16, "dct2_cubic with 86 base atoms at block 16"),
            (DictionaryKind.DCT2_LINEAR, 85, 16, "dct2_linear with 85 base atoms at block 16"),
            (DictionaryKind.DCT2_LINEAR, 86, 8, "dct2_linear with 86 base atoms at block 8"),
        ],
    )
    def test_mismatch_names_both_sides(self, dict2_linear16, kind, n_base, block, expects):
        enc = EncodedImage(16, 16, block, kind, n_base, 40.0, [0] * (16 // block) ** 2, [], [])
        message = f"container expects {expects}, dictionary is dct2_linear with 86 at block 16"
        with pytest.raises(DictionaryMismatchError, match=re.escape(message)):
            decode(enc, dict2_linear16)


class TestContainer:
    def test_round_trip_is_byte_identical(self, dict2_linear16, small_image):
        enc, _ = encode(small_image, dict2_linear16, 40.0)
        payload = serialize(enc)
        parsed = deserialize(payload)
        assert serialize(parsed) == payload
        assert parsed == enc

    def test_truncated_header(self):
        with pytest.raises(ContainerError, match="offset"):
            deserialize(b"SIC1")

    def test_bad_magic(self):
        with pytest.raises(ContainerError, match="magic"):
            deserialize(b"JUNK" + bytes(25))

    def test_truncated_payload_reports_offset(self, dict2_linear16, small_image):
        enc, _ = encode(small_image, dict2_linear16, 40.0)
        payload = serialize(enc)
        with pytest.raises(ContainerError) as excinfo:
            deserialize(payload[:-5])
        assert excinfo.value.offset > 0

    def test_trailing_garbage_rejected(self, dict2_linear16, small_image):
        enc, _ = encode(small_image, dict2_linear16, 40.0)
        with pytest.raises(ContainerError, match="trailing"):
            deserialize(serialize(enc) + b"\x00")

    @staticmethod
    def _one_entry_container(flat, coeff):
        # serialize refuses to write a bad entry, so the 29-byte header and
        # the one block of one entry are packed by hand
        header = struct.pack(
            "<4sHIIHBId", b"SIC1", 1, 16, 16, 16, DictionaryKind.DCT2_LINEAR.wire_code, 86, 40.0
        )
        return header + struct.pack("<HId", 1, flat, coeff)

    @pytest.mark.parametrize("width, height, side, offset", [(0, 16, "width", 6), (16, 0, "height", 10)])
    def test_zero_dimension_is_rejected(self, width, height, side, offset):
        # every block size tiles a zero side, so the grid has no blocks
        header = struct.pack(
            "<4sHIIHBId", b"SIC1", 1, width, height, 8, DictionaryKind.DCT2_LINEAR.wire_code, 46, 40.0
        )
        with pytest.raises(ContainerError, match=f"image {side} 0") as excinfo:
            deserialize(header)
        assert excinfo.value.offset == offset

    def test_block_size_that_does_not_tile_is_rejected(self):
        data = bytearray(self._one_entry_container(0, 1.0))
        data[14:16] = struct.pack("<H", 3)
        with pytest.raises(ContainerError, match=re.escape("block size 3 does not tile 16x16")) as excinfo:
            deserialize(bytes(data))
        assert excinfo.value.offset == 14

    def test_unknown_dictionary_code(self):
        header = struct.pack("<4sHIIHBId", b"SIC1", 1, 16, 16, 16, 9, 86, 40.0)
        with pytest.raises(ContainerError, match="unknown dictionary code 9") as excinfo:
            deserialize(header + struct.pack("<H", 0))
        assert excinfo.value.offset == 16

    def test_address_out_of_range(self):
        with pytest.raises(ContainerError, match="address 7740 out of range"):
            deserialize(self._one_entry_container(90 * 86, 1.0))

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -1e301])
    def test_coefficient_out_of_range(self, coeff):
        # such a coefficient would decode to nan or overflow
        with pytest.raises(ContainerError, match="coefficient") as excinfo:
            deserialize(self._one_entry_container(0, coeff))
        assert excinfo.value.offset == 35

    def test_block_above_the_limit_is_rejected(self):
        # a 31-byte container whose one block would need a 65535-long dictionary
        enc = EncodedImage(
            width=65535,
            height=65535,
            block_size=65535,
            kind=DictionaryKind.DCT2_LINEAR,
            n_base=86,
            target_psnr=40.0,
            counts=[0],
            flats=[],
            coeffs=[],
        )
        payload = serialize(enc)
        assert len(payload) == 31
        with pytest.raises(ContainerError, match="block size 65535 exceeds 255") as excinfo:
            deserialize(payload)
        assert excinfo.value.offset == 14

    @pytest.mark.parametrize("address", [(0, -1), (-1, 5), (-1, 0), (86, 0), (85, 86), (90, 0)])
    def test_address_that_would_read_back_as_another_atom(self, address):
        # off the 86 x 86 grid, each (i, j) has a flat index i * 86 + j outside
        # [0, 86**2), which would not read back as (i, j)
        flat = address[0] * 86 + address[1]
        with pytest.raises(ValueError, match=re.escape(f"block (0, 1) holds flat address {flat}, outside [0, 7396)")):
            EncodedImage(32, 16, 16, DictionaryKind.DCT2_LINEAR, 86, 40.0, [0, 2], [0, flat], [1.0, 2.0])

    @pytest.mark.parametrize("flat", [-1, 2**32])
    def test_a_flat_that_a_u32_would_wrap_is_rejected(self, flat):
        # with n_base MAX_N_BASE, flat -1 would be written as 2**32 - 1 and read
        # back as atom (65535, 65535), and flat 2**32 as atom (0, 0)
        with pytest.raises(ValueError, match=re.escape(f"block (0, 0) holds flat address {flat}, outside [0, {2**32})")):
            EncodedImage(16, 16, 16, DictionaryKind.DCT2_LINEAR, MAX_N_BASE, 40.0, [1], [flat], [1.0])

    def test_a_bad_flat_names_the_first_bad_block(self):
        # 2x2 blocks; the first bad flat sits in block (1, 0), after an empty
        # block, as its second atom or as its first, where block (0, 0) ends
        for flats in ([5, 6, 7396, -1], [5, 7396, 6, -1]):
            with pytest.raises(ValueError, match=re.escape("block (1, 0) holds flat address 7396")):
                EncodedImage(32, 32, 16, DictionaryKind.DCT2_LINEAR, 86, 40.0, [1, 0, 2, 1], flats, [1.0] * 4)

    @pytest.mark.parametrize("counts", [[-1, 2], [2, -1, 0, 0], [0, 2, 2, -3]])
    def test_a_negative_count_is_rejected(self, counts):
        # the counts still sum to the one flat, so only the sign check can refuse them
        grid = len(counts)
        n = next(n for n, c in enumerate(counts) if c < 0)
        with pytest.raises(ValueError, match=re.escape(f"block {divmod(n, grid // 2)} has {counts[n]} atoms")):
            EncodedImage(32, 16 * grid // 2, 16, DictionaryKind.DCT2_LINEAR, 86, 40.0, counts, [7], [1.0])

    @pytest.mark.parametrize("counts, flats, coeffs", [
        ([1, 1], [0], [1.0]),
        ([1, 0], [0, 1], [1.0, 2.0]),
        ([1, 1], [0, 1], [1.0]),
        ([1, 1], [0], [1.0, 2.0]),
    ])
    def test_the_counts_must_sum_to_the_columns(self, counts, flats, coeffs):
        with pytest.raises(ValueError, match=f"{sum(counts)} atoms counted, {len(flats)} flats and {len(coeffs)} coeff"):
            EncodedImage(32, 16, 16, DictionaryKind.DCT2_LINEAR, 86, 40.0, counts, flats, coeffs)

    def test_the_columns_are_read_only(self):
        enc = EncodedImage(16, 16, 16, DictionaryKind.DCT2_LINEAR, 86, 40.0, [1], [3], [1.0])
        for column in (enc.counts, enc.flats, enc.coeffs):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    @pytest.mark.parametrize("width, height, block", [(17, 16, 16), (16, 24, 16), (16, 16, 0), (16, 16, -16)])
    def test_the_block_size_must_tile_the_image(self, width, height, block):
        # 17x16 at block 16 used to be accepted and written, and then refused
        # by deserialize; block 0 raised ZeroDivisionError
        with pytest.raises(ValueError, match=re.escape(f"block size {block} does not tile {width}x{height}")):
            EncodedImage(width, height, block, DictionaryKind.DCT2_LINEAR, 86, 40.0, [0], [], [])

    def test_the_counts_are_summed_once_per_image(self):
        # the first read finds where each block ends; before, every
        # enc.blocks access ran a cumulative sum over all the counts
        enc = EncodedImage(64, 64, 8, DictionaryKind.DCT2_LINEAR, 43, 40.0, [1] * 64, range(64), [1.0] * 64)
        with mock.patch.object(np, "cumsum", wraps=np.cumsum) as spy:
            assert [enc.blocks[n].entries for n in (0, 43, -1)] == [[((0, 0), 1.0)], [((1, 0), 1.0)], [((1, 20), 1.0)]]
            assert len(enc.blocks) == 64
        assert spy.call_count == 1

    def test_the_blocks_are_read_by_integer_index_only(self):
        enc = EncodedImage(32, 16, 16, DictionaryKind.DCT2_LINEAR, 86, 40.0, [1, 0], [87], [2.0])
        assert [b.entries for b in enc.blocks] == [[((1, 1), 2.0)], []]
        with pytest.raises(TypeError):
            enc.blocks[0:1]  # would otherwise read as block 0 where a 1-element array converts to int

    def test_a_nan_target_equals_itself(self):
        # a container may carry any f64 target, and deserialize keeps it
        data = struct.pack("<4sHIIHBId", b"SIC1", 1, 16, 16, 16, 1, 86, math.nan) + struct.pack("<H", 0)
        assert deserialize(data) == deserialize(data)
        enc = deserialize(data)
        assert enc == enc
        assert deserialize(data) != deserialize(data[:-10] + struct.pack("<dH", 40.0, 0))

    def test_an_image_equals_no_other_type(self):
        enc = EncodedImage(16, 16, 16, DictionaryKind.DCT2_LINEAR, 86, 40.0, [1], [87], [2.0])
        assert enc.__eq__((16, 16)) is NotImplemented
        assert enc != (16, 16)
        assert not enc == serialize(enc)

    def test_repr_names_the_header_and_the_column_sizes(self):
        enc = EncodedImage(32, 16, 8, DictionaryKind.DCT2_LINEAR, 46, 40.0, [1, 0, 2, 0, 0, 0, 0, 0], [3, 5, 7], [1.0, 2.0, 3.0])
        assert repr(enc) == (
            "EncodedImage(width=32, height=16, block_size=8, kind=<DictionaryKind.DCT2_LINEAR: 'dct2_linear'>, "
            "n_base=46, target_psnr=40.0, <8 blocks of 3 atoms>)"
        )

    def test_an_unsupported_version_is_rejected(self):
        header = struct.pack("<4sHIIHBId", b"SIC1", 2, 16, 16, 16, DictionaryKind.DCT2_LINEAR.wire_code, 86, 40.0)
        with pytest.raises(ContainerError, match="unsupported container version 2") as excinfo:
            deserialize(header + struct.pack("<H", 0))
        assert excinfo.value.offset == 4

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -1e301])
    def test_coefficient_that_would_not_read_back(self, coeff):
        enc = EncodedImage(
            width=16,
            height=16,
            block_size=16,
            kind=DictionaryKind.DCT2_LINEAR,
            n_base=86,
            target_psnr=40.0,
            counts=[1],
            flats=[0],
            coeffs=[coeff],
        )
        with pytest.raises(ValueError, match=re.escape(f"block (0, 0) holds coefficient {coeff}")):
            serialize(enc)

    def test_block_count_must_match_the_grid(self):
        # a 32x32 image at L = 16 has four blocks
        with pytest.raises(ValueError, match="1 blocks .* has 4 blocks"):
            EncodedImage(
                width=32,
                height=32,
                block_size=16,
                kind=DictionaryKind.DCT2_LINEAR,
                n_base=86,
                target_psnr=40.0,
                counts=[0],
                flats=[],
                coeffs=[],
            )

    def test_block_count_truncated(self):
        # a 32x32 image at L = 16 has four blocks; the payload ends after one
        header = struct.pack(
            "<4sHIIHBId", b"SIC1", 1, 32, 32, 16, DictionaryKind.DCT2_LINEAR.wire_code, 86, 40.0
        )
        with pytest.raises(ContainerError, match="block count truncated") as excinfo:
            deserialize(header + struct.pack("<H", 0))
        assert excinfo.value.offset == 31

    def test_a_huge_declared_grid_allocates_nothing_per_block(self):
        # 65535 x 65535 blocks of 1 x 1 are declared, and one count follows
        header = struct.pack(
            "<4sHIIHBId", b"SIC1", 1, 65535, 65535, 1, DictionaryKind.DCT2_LINEAR.wire_code, 86, 40.0
        )
        tracemalloc.start()
        try:
            with pytest.raises(ContainerError, match="block count truncated") as excinfo:
                deserialize(header + struct.pack("<H", 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert excinfo.value.offset == 31
        assert peak < 2**20

    @pytest.mark.parametrize(
        "entries, cut, message, offset",
        [
            # the first of two bad entries; an entry's address before its coefficient
            ([(0, math.inf), (90 * 86, 1.0)], 0, "coefficient inf out of range", 35),
            ([(90 * 86, math.nan), (0, math.inf)], 0, "atom address 7740 out of range", 31),
            # a bad entry before the cut, which is raised only when every entry is good
            ([(0, 1.0), (0, -1e301), (0, 1.0)], 11, "coefficient -1e+301 out of range", 47),
            ([(0, 1.0), (0, 1.0), (0, 1.0)], 11, "entry truncated", 55),
        ],
    )
    def test_the_first_fault_in_stream_order_is_raised(self, entries, cut, message, offset):
        # a 16x16 image at L = 8 has four blocks: the first holds every entry,
        # and a cut of 11 bytes ends the data inside its last entry
        header = struct.pack(
            "<4sHIIHBId", b"SIC1", 1, 16, 16, 8, DictionaryKind.DCT2_LINEAR.wire_code, 86, 40.0
        )
        data = header + struct.pack("<H", len(entries)) + b"".join(struct.pack("<Id", *e) for e in entries)
        data += struct.pack("<3H", 0, 0, 0)
        with pytest.raises(ContainerError, match=re.escape(message)) as excinfo:
            deserialize(data[: len(data) - cut] if cut else data)
        assert excinfo.value.offset == offset

    def test_every_prefix_of_a_tile_container_reads_as_the_per_entry_reader_reads_it(self):
        # a 64x64 texture tile at L = 16: 16 blocks of 9 to 14 atoms, so the
        # cuts fall in the header, in counts and inside entries of every block
        d = _corpus.dictionary(DictionaryKind.DCT2_LINEAR, 16)
        data = serialize(encode(ImageGray8.from_array(_corpus.corpus.make_image("texture", 1)[:64, :64]), d, 40.0)[0])

        def outcome(read, data):
            try:
                return read(data)
            except ValueError as exc:
                return type(exc), str(exc), exc.offset

        for cut in range(len(data) + 1):
            assert outcome(deserialize, data[:cut]) == outcome(_oracles.deserialize, data[:cut]), cut

    def test_n_base_above_the_limit_is_value_error(self):
        # flat address 69999 * 70000 + 69999 does not fit the u32 entry field
        enc = EncodedImage(16, 16, 16, DictionaryKind.DCT2_LINEAR, 70000, 40.0, [1], [70000**2 - 1], [1.0])
        with pytest.raises(ValueError, match=f"n_base 70000 exceeds {MAX_N_BASE}"):
            serialize(enc)

    def test_n_base_above_the_limit_is_rejected_on_read(self):
        header = struct.pack(
            "<4sHIIHBId", b"SIC1", 1, 16, 16, 16, DictionaryKind.DCT2_LINEAR.wire_code, MAX_N_BASE + 1, 40.0
        )
        with pytest.raises(ContainerError, match=f"n_base {MAX_N_BASE + 1} exceeds {MAX_N_BASE}") as excinfo:
            deserialize(header + struct.pack("<H", 0))
        assert excinfo.value.offset == 17

    def test_n_base_at_the_limit_round_trips_its_last_address(self):
        last = MAX_N_BASE - 1
        enc = EncodedImage(16, 16, 16, DictionaryKind.DCT2_LINEAR, MAX_N_BASE, 40.0, [1], [last * MAX_N_BASE + last], [1.0])
        payload = serialize(enc)
        assert struct.unpack_from("<I", payload, 31) == (2**32 - 1,)
        assert deserialize(payload) == enc

    def test_block_beyond_the_u16_entry_count_is_value_error(self):
        enc = EncodedImage(
            width=512,
            height=256,
            block_size=256,
            kind=DictionaryKind.DCT2_LINEAR,
            n_base=1,
            target_psnr=40.0,
            counts=[0, MAX_ENTRIES + 1],
            flats=[0] * (MAX_ENTRIES + 1),
            coeffs=[1.0] * (MAX_ENTRIES + 1),
        )
        with pytest.raises(ValueError, match=r"block \(0, 1\) holds 65536 atoms"):
            serialize(enc)


class TestPgm:
    def test_round_trip(self, tmp_path, small_image):
        path = tmp_path / "img.pgm"
        write_pgm(path, small_image)
        loaded = read_pgm(path)
        assert loaded.width == small_image.width
        assert loaded.height == small_image.height
        np.testing.assert_array_equal(loaded.pixels, small_image.pixels)

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        raster = bytes(range(6))
        path.write_bytes(b"P5\n# a comment\n 3 # inline\n2\n255\n" + raster)
        img = read_pgm(path)
        assert (img.width, img.height) == (3, 2)
        np.testing.assert_array_equal(img.pixels.ravel(), np.frombuffer(raster, np.uint8))

    def test_rejects_ascii_pgm(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(ValueError, match="P5"):
            read_pgm(path)

    def test_rejects_wide_maxval(self, tmp_path):
        path = tmp_path / "wide.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ValueError, match="maxval"):
            read_pgm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    @pytest.mark.parametrize(
        "array, reason",
        [
            ([[300.0, -1.0], [2.7, 255.9]], "8-bit pixels"),
            (np.full((2, 2), 7.0), "8-bit pixels"),
            ([[256, -1]], "8-bit pixels"),
            (np.zeros((0, 3), np.uint8), "no pixels"),
            (np.zeros((0, 3)), "8-bit pixels"),
            (np.zeros((3, 0), np.int64), "image 0x3 has no pixels"),
            (np.zeros((2, 2, 2), np.uint8), "2D grayscale"),
            (np.zeros(4, np.uint8), "2D grayscale"),
        ],
        ids=["floats", "float-integers", "ints-outside-0-255", "empty", "empty-float", "empty-int", "3d", "1d"],
    )
    def test_write_rejects_what_from_array_rejects(self, tmp_path, array, reason):
        # no array is cast to uint8: a cast would write 300.0 as 44 and -1 as 255
        path = tmp_path / "w.pgm"
        with pytest.raises(ValueError, match=reason):
            write_pgm(path, array)
        assert not path.exists()

    @pytest.mark.parametrize(
        "header, bad",
        [(b"P5 +1_6 1 0_255 ", b"+1_6"), (b"P5 1_6 1 255 ", b"1_6"), (b"P5 +16 1 255 ", b"+16")],
        ids=["signed-underscored", "underscored", "signed"],
    )
    def test_header_numbers_are_plain_decimal(self, tmp_path, header, bad):
        # int() alone would read each of these as a 16x1 image
        path = tmp_path / "signed.pgm"
        path.write_bytes(header + bytes(16))
        with pytest.raises(ValueError, match=re.escape(f"invalid literal for int() with base 10: {bad!r}")):
            read_pgm(path)

    @pytest.mark.parametrize("data", [b"", b"P5 16", b"P5\n# c\n4 4"])
    def test_truncated_header(self, tmp_path, data):
        path = tmp_path / "header.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="truncated PGM header"):
            read_pgm(path)

    @pytest.mark.parametrize(
        "data, dims", [(b"P5\n-2 1\n255\n", "-2x1"), (b"P5\n-1 -1\n255\nx", "-1x-1")]
    )
    def test_negative_dimensions_rejected(self, tmp_path, data, dims):
        path = tmp_path / "negative.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"negative image dimensions {dims}"):
            read_pgm(path)


class TestReportCsv:
    def test_append_and_read_round_trip(self, tmp_path):
        report = SparsityReport(
            image="x",
            dictionary="dct2_linear",
            total_atoms=1024,
            pixel_count=262144,
            target_psnr=40.0,
            achieved_psnr=41.123456789,
        )
        path = tmp_path / "report.csv"
        append_report(path, report)
        append_report(path, report)
        rows = read_report(path)
        assert len(rows) == 2
        assert rows[0]["image"] == "x"
        assert float(rows[0]["cr"]) == 256.0
        assert float(rows[0]["psnr_target"]) == 40.0

    def test_report_format_golden_bytes(self, tmp_path):
        report = SparsityReport(
            image="x",
            dictionary="dct2_linear",
            total_atoms=1024,
            pixel_count=262144,
            target_psnr=40.0,
            achieved_psnr=41.123456789,
        )
        path = tmp_path / "report.csv"
        append_report(path, report)
        expected = (
            "image,dictionary,atoms,cr,psnr_target,psnr_achieved\n"
            "x,dct2_linear,1024,256.0,40.0,41.123457\n"
        )
        assert path.read_bytes() == expected.encode()

    def test_read_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="report"):
            read_report(path)


class TestImageGray8:
    def test_from_array_validates_dtype(self):
        with pytest.raises(ValueError, match="8-bit"):
            ImageGray8.from_array(np.zeros((4, 4), np.float64))

    @pytest.mark.parametrize("shape", [(0, 16), (16, 0)])
    def test_no_pixels_is_rejected(self, shape):
        with pytest.raises(ValueError, match="no pixels"):
            ImageGray8.from_array(np.zeros(shape, np.uint8))

    def test_pixels_must_have_the_image_shape(self):
        with pytest.raises(ValueError, match=r"shape \(16, 16\) for a 32x16 image"):
            ImageGray8(width=32, height=16, pixels=np.zeros((16, 16), np.uint8))

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint16])
    def test_pixels_must_be_uint8(self, dtype):
        # written as they are, such pixels would not read back
        with pytest.raises(ValueError, match=f"dtype {np.dtype(dtype)}, not uint8"):
            ImageGray8(width=2, height=2, pixels=np.full((2, 2), 300, dtype))

    def test_from_array_accepts_small_ints(self):
        img = ImageGray8.from_array(np.arange(16, dtype=np.int64).reshape(4, 4))
        assert img.pixels.dtype == np.uint8

    def test_clamp_rounds_and_saturates(self):
        out = clamp_to_u8(np.array([[-3.0, 0.4, 254.6, 300.0]]))
        np.testing.assert_array_equal(out, np.array([[0, 0, 255, 255]], np.uint8))

    def test_clamp_leaves_its_argument_and_rounds_as_clip_of_rint(self):
        # half-way values round to even, and the benchmark hashes the image it clamps
        x = np.array([-0.5, -0.0, 0.5, 254.5, 255.5, 1e300])
        before = x.tobytes()
        out = clamp_to_u8(x)
        assert x.tobytes() == before
        want = np.clip(np.rint(x), 0, 255).astype(np.uint8)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
