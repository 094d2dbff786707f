import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from sparseimg import (
    Dictionary2D,
    DictionaryKind,
    EncodedImage,
    ImageGray8,
    SparseBlock,
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
    ContainerError,
    DictionaryMismatchError,
    append_report,
    clamp_to_u8,
    deserialize,
    read_report,
    serialize,
)
from sparseimg.codec import SparsityReport

from conftest import synthetic_image


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
        # The image's blocks are pursued in groups of 20 (L = 16) or 81
        # (L = 8) consecutive blocks, the tile's in one group of its own and
        # run_omp's in groups of one: each block must come out bit for bit
        # the same.
        d = Dictionary2D(assemble_dictionary(DictionaryKind.DCT2_LINEAR, L))
        noise = np.random.default_rng(6).normal(0.0, 6.0, size=(128, 256))
        pixels = np.clip(np.rint(synthetic_image(128, 256).as_float() + noise), 0, 255)
        image = ImageGray8.from_array(pixels.astype(np.uint8))
        whole, _ = encode(image, d, 40.0)
        ty, tx = 64, 128
        tile, _ = encode(ImageGray8.from_array(pixels[ty : ty + 64, tx : tx + 64].astype(np.uint8)), d, 40.0)
        rule = StoppingRule("both", psnr_to_block_sse(40.0, L), L * L)
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
        # entries hold about 2.7 MB. A group holds GROUP_ENTRIES // 8,464 = 15
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

    def test_trace_collects_rows_per_block(self, dict2_linear16, small_image):
        trace = []
        enc, _ = encode(small_image, dict2_linear16, 30.0, trace=trace)
        assert len(trace) == sum(len(b) for b in enc.blocks)
        blocks_seen = [row[0] for row in trace]
        assert blocks_seen == sorted(blocks_seen)
        # per-block iteration counters restart at one
        first = [row for row in trace if row[0] == 0]
        assert [row[1] for row in first] == list(range(1, len(first) + 1))


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

    def test_empty_block_is_zero(self, dict2_linear16):
        enc = EncodedImage(
            width=16,
            height=16,
            block_size=16,
            kind=DictionaryKind.DCT2_LINEAR,
            n_base=86,
            target_psnr=40.0,
            blocks=[SparseBlock()],
        )
        np.testing.assert_array_equal(decode(enc, dict2_linear16), np.zeros((16, 16)))

    def test_kind_mismatch(self, dict2_cubic16, dict2_linear16, small_image):
        enc, _ = encode(small_image, dict2_linear16, 35.0)
        with pytest.raises(DictionaryMismatchError):
            decode(enc, dict2_cubic16)


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
            blocks=[SparseBlock()],
        )
        payload = serialize(enc)
        assert len(payload) == 31
        with pytest.raises(ContainerError, match="block size 65535 exceeds 255") as excinfo:
            deserialize(payload)
        assert excinfo.value.offset == 14

    @pytest.mark.parametrize("address", [(0, 90), (1, 86), (0, -1), (-1, 5), (86, 0), (90, 0)])
    def test_address_that_would_read_back_as_another_atom(self, address):
        # with n_base 86, (0, 90) would be written as flat 90 and read back as (1, 4)
        enc = EncodedImage(
            width=32,
            height=16,
            block_size=16,
            kind=DictionaryKind.DCT2_LINEAR,
            n_base=86,
            target_psnr=40.0,
            blocks=[SparseBlock(), SparseBlock(entries=[((0, 0), 1.0), (address, 2.0)])],
        )
        with pytest.raises(ValueError, match=re.escape(f"block (0, 1) holds address {address}")):
            serialize(enc)

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -1e301])
    def test_coefficient_that_would_not_read_back(self, coeff):
        enc = EncodedImage(
            width=16,
            height=16,
            block_size=16,
            kind=DictionaryKind.DCT2_LINEAR,
            n_base=86,
            target_psnr=40.0,
            blocks=[SparseBlock(entries=[((0, 0), coeff)])],
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
                blocks=[SparseBlock()],
            )

    def test_block_beyond_the_u16_entry_count_is_value_error(self):
        enc = EncodedImage(
            width=512,
            height=256,
            block_size=256,
            kind=DictionaryKind.DCT2_LINEAR,
            n_base=1,
            target_psnr=40.0,
            blocks=[SparseBlock(), SparseBlock(entries=[((0, 0), 1.0)] * (MAX_ENTRIES + 1))],
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

    def test_from_array_accepts_small_ints(self):
        img = ImageGray8.from_array(np.arange(16, dtype=np.int64).reshape(4, 4))
        assert img.pixels.dtype == np.uint8

    def test_clamp_rounds_and_saturates(self):
        out = clamp_to_u8(np.array([[-3.0, 0.4, 254.6, 300.0]]))
        np.testing.assert_array_equal(out, np.array([[0, 0, 255, 255]], np.uint8))
