import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparseimg
from sparseimg import DictionaryKind, EncodedImage, SparseBlock, assemble_dictionary, psnr, read_pgm, write_pgm
from sparseimg.codec import serialize
from sparseimg.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

from conftest import synthetic_image


@pytest.fixture()
def pgm_path(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, synthetic_image(32, 32))
    return path


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage failures
        return exc.code


def assert_one_error_line(err, path):
    """``err`` is the one line ``sparseimg: <path>: <reason>``, naming ``path`` once."""
    assert err.startswith(f"sparseimg: {path}: ") and err.count("\n") == 1, err
    assert err.count(str(path)) == 1, err


class TestEncodeCommand:
    def test_happy_path_writes_container_and_report(self, tmp_path, pgm_path, capsys):
        report = tmp_path / "report.csv"
        code = run(
            [
                "encode",
                "--method",
                "omp_linear",
                "--psnr",
                "38",
                "--report",
                str(report),
                str(pgm_path),
            ]
        )
        assert code == EXIT_OK
        assert (tmp_path / "img.sic").exists()
        lines = report.read_text().splitlines()
        assert lines[0] == "image,dictionary,atoms,cr,psnr_target,psnr_achieved"
        assert lines[1].startswith("img,dct2_linear,")
        out = capsys.readouterr().out
        assert "CR=" in out

    def test_baseline_methods_report_without_container(self, tmp_path, pgm_path):
        report = tmp_path / "report.csv"
        for method in ("dct", "cdf97"):
            code = run(
                [
                    "encode",
                    "--method",
                    method,
                    "--psnr",
                    "38",
                    "--levels",
                    "3",
                    "--block",
                    "16",
                    "--report",
                    str(report),
                    str(pgm_path),
                ]
            )
            assert code == EXIT_OK
        assert not (tmp_path / "img.sic").exists()
        rows = report.read_text().splitlines()
        assert len(rows) == 3  # header + two methods

    def test_batch_keeps_input_order(self, tmp_path):
        report = tmp_path / "report.csv"
        paths = []
        for name in ("alpha", "beta", "gamma"):
            path = tmp_path / f"{name}.pgm"
            write_pgm(path, synthetic_image(32, 32))
            paths.append(str(path))
        code = run(["encode", "--method", "dct", "--report", str(report), *paths])
        assert code == EXIT_OK
        names = [line.split(",")[0] for line in report.read_text().splitlines()[1:]]
        assert names == ["alpha", "beta", "gamma"]

    def test_block_smaller_than_atom_support_is_usage_error(self, pgm_path, capsys):
        code = run(["encode", "--method", "omp_cubic", "--block", "4", str(pgm_path)])
        assert code == EXIT_USAGE
        assert "support" in capsys.readouterr().err

    def test_block_beyond_container_limit_is_usage_error(self, pgm_path, capsys):
        code = run(["encode", "--method", "omp_linear", "--block", "256", str(pgm_path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "256" in err and "65535" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "method, block, support",
        [("omp_linear", "4", 5), ("omp_cubic", "10", 11), ("omp_cubic", "4", 11)],
        ids=["omp_linear-4", "omp_cubic-10", "omp_cubic-4"],
    )
    def test_block_below_the_widest_support_is_usage_error(self, pgm_path, capsys, method, block, support):
        # the message names the widest spline support of the family, not the
        # first one that does not fit
        code = run(["encode", "--method", method, "--block", block, str(pgm_path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"support {support}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "omp_linear", "--block", "0"],
            ["--method", "dct", "--block", "0"],
            ["--psnr", "0"],
            ["--method", "dct", "--psnr", "0"],
            ["--levels", "0"],
        ],
    )
    def test_nonpositive_option_is_usage_error(self, pgm_path, capsys, flags):
        assert run(["encode", *flags, str(pgm_path)]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code = run(["encode", "--method", "omp_linear", str(tmp_path / "nope.pgm")])
        assert code == EXIT_IO
        assert "nope.pgm" in capsys.readouterr().err

    def test_indivisible_image_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "odd.pgm"
        write_pgm(path, np.zeros((24, 24), np.uint8))
        code = run(["encode", "--method", "omp_linear", str(path)])
        assert code == EXIT_IO
        assert "divisible" in capsys.readouterr().err

    def test_report_in_a_missing_directory_is_io_error(self, tmp_path, pgm_path, capsys):
        report = tmp_path / "nodir" / "r.csv"
        assert run(["encode", "--method", "dct", "--report", str(report), str(pgm_path)]) == EXIT_IO
        assert_one_error_line(capsys.readouterr().err, report)

    def test_wrong_magic_names_the_file_once(self, tmp_path, capsys):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        assert run(["encode", str(path)]) == EXIT_IO
        assert capsys.readouterr().err == f"sparseimg: {path}: not a binary PGM (P5) file, magic b'P6'\n"

    @pytest.mark.parametrize("method", ["omp_linear", "dct"])
    def test_image_without_pixels_is_io_error(self, tmp_path, capsys, method):
        path = tmp_path / "empty.pgm"
        path.write_bytes(b"P5\n0 16\n255\n")
        assert run(["encode", "--method", method, str(path)]) == EXIT_IO
        assert_one_error_line(capsys.readouterr().err, path)

    @pytest.mark.parametrize("method", ["dct", "cdf97"])
    def test_baseline_missing_the_target_with_every_coefficient_is_numeric_error(
        self, tmp_path, pgm_path, capsys, method
    ):
        # keeping every coefficient reconstructs the image to rounding, far
        # short of 400 dB
        report = tmp_path / "r.csv"
        argv = ["encode", "--method", method, "--block", "8", "--psnr", "400", "--report", str(report)]
        assert run(argv + [str(pgm_path)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert_one_error_line(err, pgm_path)
        assert "unreachable" in err
        assert not report.exists()

    def test_omp_target_missed_at_the_atom_cap_is_numeric_error(self, tmp_path, capsys):
        # every 8x8 block of this image holds all 64 atoms with its SSE
        # still above the 400 dB threshold
        path = tmp_path / "img.pgm"
        write_pgm(path, synthetic_image(16, 16))
        out, report = tmp_path / "out", tmp_path / "r.csv"
        out.mkdir()
        argv = ["encode", "--block", "8", "--psnr", "400", "--out", str(out), "--report", str(report), str(path)]
        assert run(argv) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert_one_error_line(err, path)
        assert f"sparseimg: {path}: pursuit exhausted: block (0, 0): residual SSE " in err
        assert "with 64 atoms" in err
        assert list(out.iterdir()) == []
        assert not report.exists()

    def test_omp_target_missed_with_every_atom_masked_is_numeric_error(self, tmp_path, capsys):
        # the console-script smoke image: at 400 dB, block (0, 1) masks every
        # remaining candidate before it holds 64 atoms
        y, x = np.mgrid[:32, :32]
        path = tmp_path / "x.pgm"
        write_pgm(path, (128 + 60 * np.sin(x / 3.0) + 2 * y).astype(np.uint8))
        out = tmp_path / "out"
        out.mkdir()
        assert run(["encode", "--block", "8", "--psnr", "400", "--out", str(out), str(path)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert_one_error_line(err, path)
        assert f"sparseimg: {path}: pursuit exhausted: block (0, 1): all atoms masked" in err
        assert list(out.iterdir()) == []

    def test_unknown_method_is_usage_error(self, pgm_path):
        assert run(["encode", "--method", "magic", str(pgm_path)]) == EXIT_USAGE

    def test_trace_writes_per_iteration_rows(self, tmp_path, pgm_path):
        code = run(
            ["encode", "--method", "omp_linear", "--psnr", "30", "--trace", str(pgm_path)]
        )
        assert code == EXIT_OK
        trace = (tmp_path / "img.trace.csv").read_text().splitlines()
        assert trace[0] == "block,k,i,j,abs_corr,sse"
        assert len(trace) > 1


class TestDecodeCommand:
    def test_round_trip_prints_psnr(self, tmp_path, pgm_path, capsys):
        assert run(["encode", "--method", "omp_linear", "--psnr", "38", str(pgm_path)]) == EXIT_OK
        capsys.readouterr()
        sic = tmp_path / "img.sic"
        out = tmp_path / "restored.pgm"
        code = run(["decode", str(sic), "--out", str(out), "--orig", str(pgm_path)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "psnr=" in printed
        assert float(printed.split("psnr=")[1]) >= 38.0
        restored = read_pgm(out)
        assert (restored.width, restored.height) == (32, 32)

    def test_psnr_u8_is_that_of_the_written_file(self, tmp_path, pgm_path, capsys):
        assert run(["encode", "--method", "omp_linear", "--psnr", "38", str(pgm_path)]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "restored.pgm"
        code = run(["decode", str(tmp_path / "img.sic"), "--out", str(out), "--orig", str(pgm_path)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        u8 = printed.split("psnr_u8=")[1].split()[0]
        assert u8 == f"{psnr(read_pgm(pgm_path), read_pgm(out)):.2f}"

    def test_without_original_no_psnr_line(self, tmp_path, pgm_path, capsys):
        run(["encode", "--method", "omp_linear", "--psnr", "35", str(pgm_path)])
        capsys.readouterr()
        code = run(["decode", str(tmp_path / "img.sic")])
        assert code == EXIT_OK
        assert "psnr=" not in capsys.readouterr().out
        assert (tmp_path / "img.pgm").exists()

    @pytest.mark.parametrize("out", [None, "img.pgm"])
    def test_output_onto_the_original_is_refused(self, tmp_path, pgm_path, capsys, out):
        assert run(["encode", "--method", "omp_linear", "--psnr", "35", str(pgm_path)]) == EXIT_OK
        capsys.readouterr()
        original = pgm_path.read_bytes()
        extra = [] if out is None else ["--out", str(tmp_path / out)]
        code = run(["decode", str(tmp_path / "img.sic"), *extra, "--orig", str(pgm_path)])
        assert code == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err
        assert pgm_path.read_bytes() == original

    @pytest.mark.parametrize("block, n_base", [(2, 0), (16, 85)])
    def test_impossible_container_is_io_error(self, tmp_path, capsys, block, n_base):
        # both headers parse, but no dictionary has that block or atom count
        grid = (32 // block) ** 2
        enc = EncodedImage(32, 32, block, DictionaryKind.DCT2_LINEAR, n_base, 40.0, [SparseBlock()] * grid)
        sic = tmp_path / "bad.sic"
        sic.write_bytes(serialize(enc))
        code = run(["decode", str(sic)])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"sparseimg: {sic}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("width, height", [(0, 16), (16, 0)])
    def test_zero_dimension_container_writes_nothing(self, tmp_path, capsys, width, height):
        # a header alone: a zero side holds no blocks, so the payload ends there
        sic = tmp_path / "empty.sic"
        sic.write_bytes(struct.pack(
            "<4sHIIHBId", b"SIC1", 1, width, height, 8, DictionaryKind.DCT2_LINEAR.wire_code, 46, 40.0
        ))
        code = run(["decode", str(sic)])
        assert code == EXIT_IO
        assert_one_error_line(capsys.readouterr().err, sic)
        assert list(tmp_path.iterdir()) == [sic]

    def test_unknown_dictionary_code_is_io_error(self, tmp_path, capsys):
        sic = tmp_path / "bad.sic"
        sic.write_bytes(struct.pack("<4sHIIHBId", b"SIC1", 1, 16, 16, 16, 9, 86, 40.0) + struct.pack("<H", 0))
        code = run(["decode", str(sic), "--out", str(tmp_path / "out.pgm")])
        assert code == EXIT_IO
        assert_one_error_line(capsys.readouterr().err, sic)
        assert list(tmp_path.iterdir()) == [sic]

    def test_block_above_the_container_limit_is_io_error(self, tmp_path, capsys):
        enc = EncodedImage(256, 256, 256, DictionaryKind.DCT2_LINEAR, 86, 40.0, [SparseBlock()])
        sic = tmp_path / "bad.sic"
        sic.write_bytes(serialize(enc))
        code = run(["decode", str(sic)])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "block size 256 exceeds 255" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("orig", ["missing", "malformed", "16x16"])
    def test_bad_original_writes_nothing(self, tmp_path, pgm_path, capsys, orig):
        assert run(["encode", "--method", "omp_linear", "--psnr", "35", str(pgm_path)]) == EXIT_OK
        capsys.readouterr()
        original = tmp_path / "orig.pgm"
        if orig == "malformed":
            original.write_bytes(b"P5\n32 32\n255\n" + bytes(7))
        elif orig == "16x16":
            write_pgm(original, synthetic_image(16, 16))
        out = tmp_path / "out.pgm"
        code = run(["decode", str(tmp_path / "img.sic"), "--out", str(out), "--orig", str(original)])
        assert code == EXIT_IO
        assert_one_error_line(capsys.readouterr().err, original)
        assert not out.exists()

    def test_image_too_large_to_allocate_is_io_error(self, tmp_path):
        # A 132,127-byte container: 65535x65535 at block 255, every block
        # empty. Its decode needs a 32 GiB image. The child's address space
        # is capped at 2 GiB, so the allocation fails; without the cap it
        # could succeed lazily, and the decode would then touch every block.
        resource = pytest.importorskip("resource")
        n_base = len(assemble_dictionary(DictionaryKind.DCT2_LINEAR, 255))
        enc = EncodedImage(65535, 65535, 255, DictionaryKind.DCT2_LINEAR, n_base, 40.0, [SparseBlock()] * 257**2)
        sic = tmp_path / "huge.sic"
        sic.write_bytes(serialize(enc))
        src = str(Path(sparseimg.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        limit = 2 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "sparseimg.cli", "decode", str(sic)],
            env=env, capture_output=True, text=True, timeout=300,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == EXIT_IO, proc.stderr
        assert_one_error_line(proc.stderr, sic)
        assert "Unable to allocate" in proc.stderr
        assert list(tmp_path.iterdir()) == [sic]

    def test_corrupt_container_is_io_error(self, tmp_path, pgm_path, capsys):
        run(["encode", "--method", "omp_linear", str(pgm_path)])
        sic = tmp_path / "img.sic"
        sic.write_bytes(sic.read_bytes()[:-3])
        code = run(["decode", str(sic)])
        assert code == EXIT_IO
        assert "offset" in capsys.readouterr().err


class TestTableCommand:
    def _report(self, tmp_path, rows, name="r.csv"):
        path = tmp_path / name
        lines = ["image,dictionary,atoms,cr,psnr_target,psnr_achieved"]
        lines += [",".join(str(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_merges_methods_into_columns(self, tmp_path, capsys):
        r1 = self._report(
            tmp_path,
            [
                ("lena", "dct2_linear", 22254, 11.78, 40.0, 40.4),
                ("lena", "dct2_cubic", 22407, 11.7, 40.0, 40.3),
            ],
            "omp.csv",
        )
        r2 = self._report(
            tmp_path,
            [
                ("lena", "dct", 40330, 6.5, 40.0, 40.0),
                ("lena", "cdf97", 37610, 6.97, 40.0, 40.0),
            ],
            "base.csv",
        )
        merged = tmp_path / "merged.csv"
        code = run(["table", str(r1), str(r2), "--csv", str(merged)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "omp_linear" in out and "cdf97" in out
        assert "11.78" in out and "6.97" in out
        assert merged.read_text().splitlines()[0] == "image,omp_linear,omp_cubic,dct,cdf97"

    def test_single_report_single_column(self, tmp_path, capsys):
        r1 = self._report(tmp_path, [("boat", "dct", 100, 2621.44, 40.0, 41.0)])
        assert run(["table", str(r1)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "boat" in out
        assert "omp_linear" not in out

    def test_inconsistent_targets_is_usage_error(self, tmp_path, capsys):
        r1 = self._report(tmp_path, [("lena", "dct", 100, 1.0, 40.0, 40.0)], "a.csv")
        r2 = self._report(tmp_path, [("lena", "cdf97", 100, 1.0, 42.0, 42.0)], "b.csv")
        code = run(["table", str(r1), str(r2)])
        assert code == EXIT_USAGE
        assert "target" in capsys.readouterr().err

    def test_reference_mode_prints_ratios(self, tmp_path, capsys):
        r1 = self._report(tmp_path, [("lena", "dct", 40330, 6.5, 40.0, 40.0)])
        code = run(["table", str(r1), "--reference"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "measured / reference" in out
        assert "1.000" in out  # 6.5 against the published 6.5

    def test_reference_mode_skips_an_image_without_a_published_row(self, tmp_path, capsys):
        r1 = self._report(tmp_path, [("lena", "dct", 40330, 6.5, 40.0, 40.0), ("synth", "dct", 10, 2.0, 40.0, 40.0)])
        assert run(["table", str(r1), "--reference"]) == EXIT_OK
        ratios = capsys.readouterr().out.split("measured / reference at 40 dB\n")[1]
        assert [line.split()[0] for line in ratios.splitlines()] == ["lena"]

    def test_foreign_csv_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        assert run(["table", str(path)]) == EXIT_IO

    @pytest.mark.parametrize(
        "text",
        [
            "image,cr\nlena,6.5\n",
            "image,dictionary,atoms,cr,psnr_target,psnr_achieved\n" + "x" * 131073 + ",dct,1,1.0,40.0,40.0\n",
        ],
        ids=["two-columns", "long-field"],
    )
    def test_half_a_report_is_io_error(self, tmp_path, capsys, text):
        path = tmp_path / "r.csv"
        path.write_text(text)
        assert run(["table", str(path)]) == EXIT_IO
        assert_one_error_line(capsys.readouterr().err, path)

    def test_csv_in_a_missing_directory_is_io_error(self, tmp_path, capsys):
        r1 = self._report(tmp_path, [("lena", "dct", 40330, 6.5, 40.0, 40.0)])
        merged = tmp_path / "nodir" / "t.csv"
        assert run(["table", str(r1), "--csv", str(merged)]) == EXIT_IO
        assert_one_error_line(capsys.readouterr().err, merged)


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run([]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, pgm_path):
        assert run(["encode", "--wat", str(pgm_path)]) == EXIT_USAGE

    def test_workers_option_is_gone(self, pgm_path):
        assert run(["encode", "--workers", "2", str(pgm_path)]) == EXIT_USAGE


class TestBlasThreads:
    def test_container_does_not_depend_on_blas_thread_count(self, tmp_path):
        noise = np.random.default_rng(4).normal(0.0, 6.0, size=(128, 128))
        pixels = np.clip(np.rint(synthetic_image(128, 128).as_float() + noise), 0, 255)
        write_pgm(tmp_path / "img.pgm", pixels.astype(np.uint8))
        src = str(Path(sparseimg.__file__).resolve().parent.parent)
        containers = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            subprocess.run(
                [sys.executable, "-m", "sparseimg.cli", "encode", str(tmp_path / "img.pgm"), "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            containers.append((out / "img.sic").read_bytes())
        assert containers[0] == containers[1]
