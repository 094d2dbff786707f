"""Command-line front end: encode, decode, and report tabulation.

A failure on a file prints one line, ``sparseimg: <file>: <reason>``. Exit
codes: 0 success, 1 usage/configuration error, 2 I/O error, malformed input
or an image too large to allocate, 3 pursuit exhausted or a baseline that
misses the target with every coefficient kept.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from pathlib import Path

from . import baselines, codec
from .dictionary import Dictionary2D, DictionaryKind, assemble_dictionary
from .pursuit import PursuitExhaustedError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

OMP_METHODS = {
    "omp_linear": DictionaryKind.DCT2_LINEAR,
    "omp_cubic": DictionaryKind.DCT2_CUBIC,
}
_METHOD_OF_KIND = {kind.value: method for method, kind in OMP_METHODS.items()}
METHODS = ("omp_linear", "omp_cubic", "dct", "cdf97")

# Published reference compression ratios at PSNR 40 dB for the classic
# 512x512 grayscale test set, per method column. "film" has no public
# source image and is informational only.
REFERENCE_CR_40DB = {
    "boat": {"omp_linear": 7.05, "omp_cubic": 6.89, "dct": 3.63, "cdf97": 3.65},
    "bridge": {"omp_linear": 4.24, "omp_cubic": 3.97, "dct": 2.06, "cdf97": 2.2},
    "film": {"omp_linear": 9.72, "omp_cubic": 9.26, "dct": 4.53, "cdf97": 4.8},
    "lena": {"omp_linear": 11.78, "omp_cubic": 11.7, "dct": 6.5, "cdf97": 6.97},
    "mandril": {"omp_linear": 3.72, "omp_cubic": 3.5, "dct": 1.91, "cdf97": 1.9},
    "peppers": {"omp_linear": 8.9, "omp_cubic": 8.62, "dct": 4.36, "cdf97": 3.39},
}
_REFERENCE_ALIASES = {"mandrill": "mandril", "baboon": "mandril"}


class CliError(Exception):
    """A failure that :func:`main` prints as one line, exiting with ``code``."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


@contextmanager
def _file_errors(path):
    """Report a failure on ``path`` (or on the file an OSError names) as a CliError."""
    try:
        yield
    except (OSError, ValueError, MemoryError) as exc:
        name = getattr(exc, "filename", None) or path
        raise CliError(f"{name}: {getattr(exc, 'strerror', None) or exc}", EXIT_IO) from exc
    except PursuitExhaustedError as exc:
        raise CliError(f"{path}: pursuit exhausted: {exc}", EXIT_NUMERIC) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sparseimg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode PGM images, append sparsity report rows")
    enc.add_argument("inputs", nargs="+", help="binary PGM (P5) input images")
    enc.add_argument("--method", choices=METHODS, default="omp_linear")
    enc.add_argument("--block", type=int, default=16, help="block side (default 16)")
    enc.add_argument("--psnr", type=float, default=40.0, help="PSNR target in dB (default 40)")
    enc.add_argument("--levels", type=int, default=5, help="wavelet decomposition levels")
    enc.add_argument("--trace", action="store_true", help="write per-iteration pursuit traces")
    enc.add_argument("--out", help="output directory for .sic files (default: input's)")
    enc.add_argument("--report", help="sparsity report CSV to append to")

    dec = sub.add_parser("decode", help="decode a .sic container to PGM")
    dec.add_argument("container", help=".sic input")
    dec.add_argument("--out", help="output PGM path (default: container with .pgm suffix)")
    dec.add_argument("--orig", help="original PGM; prints psnr_u8 (8-bit output), psnr (real-valued)")

    tab = sub.add_parser("table", help="merge sparsity reports into one CR table")
    tab.add_argument("reports", nargs="+", help="report CSVs produced by encode")
    tab.add_argument("--csv", help="also write the merged table as CSV")
    tab.add_argument(
        "--reference",
        action="store_true",
        help="compare against the published 40 dB reference ratios",
    )
    return parser


REPORT_COLUMNS = ("image", "dictionary", "atoms", "cr", "psnr_target", "psnr_achieved")


def append_report(path, report: codec.SparsityReport) -> None:
    """Append ``report`` as one CSV row, creating the file with a header when needed."""
    path = Path(path)
    fresh = not path.exists() or path.stat().st_size == 0
    with open(path, "a", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        if fresh:
            writer.writerow(REPORT_COLUMNS)
        writer.writerow((
            report.image,
            report.dictionary,
            str(report.total_atoms),
            repr(round(report.compression_ratio, 6)),
            repr(float(report.target_psnr)),
            repr(round(report.achieved_psnr, 6)),
        ))


def read_report(path) -> list[dict[str, str]]:
    """Rows of a report CSV; each must have every column of REPORT_COLUMNS."""
    with open(path, newline="") as f:
        try:
            rows = list(csv.DictReader(f))
        except csv.Error as exc:
            raise ValueError(f"not a sparsity report CSV: {exc}") from exc
    for row in rows:
        if any(row.get(column) is None for column in REPORT_COLUMNS):
            raise ValueError("not a sparsity report CSV")
    return rows


def _encode_one_omp(path: Path, img: codec.ImageGray8, args, dict2d: Dictionary2D):
    trace_rows: list | None = [] if args.trace else None
    enc, report = codec.encode(
        img,
        dict2d,
        args.psnr,
        image_name=path.stem,
        trace=trace_rows,
    )
    out_dir = Path(args.out) if args.out else path.parent
    out_path = out_dir / (path.stem + ".sic")
    codec.write_sic(out_path, enc)
    if trace_rows is not None:
        trace_path = out_dir / (path.stem + ".trace.csv")
        with open(trace_path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(("block", "k", "i", "j", "abs_corr", "sse"))
            writer.writerows((block, k, i, j, corr, sse) for block, k, (i, j), corr, sse in trace_rows)
    return report, out_path


def _encode_one_baseline(path: Path, img: codec.ImageGray8, args):
    data = img.as_float()
    if args.method == "dct":
        coeffs = baselines.dct2_block_forward(data, args.block)
    else:
        coeffs = baselines.cdf97_forward(data, args.levels)
    try:
        kept, achieved = baselines.threshold_to_psnr(coeffs, data, args.psnr)
    except RuntimeError as exc:  # unreachable even with every coefficient kept
        raise CliError(f"{path}: {exc}", EXIT_NUMERIC) from exc
    report = codec.SparsityReport(
        image=path.stem,
        dictionary=args.method,
        total_atoms=kept,
        pixel_count=img.width * img.height,
        target_psnr=args.psnr,
        achieved_psnr=achieved,
    )
    return report, None


def cmd_encode(args) -> int:
    if not args.psnr > 0:
        raise CliError(f"--psnr must be positive, got {args.psnr}")
    if args.block < 1:
        raise CliError(f"--block must be positive, got {args.block}")
    if args.levels < 1:
        raise CliError(f"--levels must be >= 1, got {args.levels}")
    dict2d = None
    if args.method in OMP_METHODS:
        if args.block > codec.MAX_BLOCK:
            raise CliError(
                f"block size {args.block} exceeds {codec.MAX_BLOCK}: a container block "
                f"holds at most {codec.MAX_ENTRIES} entries"
            )
        # The dictionary rejects a block shorter than a spline prototype.
        try:
            dict2d = Dictionary2D(assemble_dictionary(OMP_METHODS[args.method], args.block))
        except ValueError as exc:
            raise CliError(f"--block {args.block} is too small for {args.method}: {exc}") from exc
    for path in map(Path, args.inputs):
        with _file_errors(path):
            img = codec.read_pgm(path)
            if dict2d is not None:
                report, out_path = _encode_one_omp(path, img, args, dict2d)
            else:
                report, out_path = _encode_one_baseline(path, img, args)
        if args.report:
            with _file_errors(args.report):
                append_report(args.report, report)
        made = f" -> {out_path}" if out_path is not None else ""
        print(
            f"{path}: {args.method} atoms={report.total_atoms} "
            f"CR={report.compression_ratio:.2f} psnr={report.achieved_psnr:.2f}{made}"
        )
    return EXIT_OK


def cmd_decode(args) -> int:
    container = Path(args.container)
    out_path = Path(args.out) if args.out else container.with_suffix(".pgm")
    if args.orig and out_path.resolve() == Path(args.orig).resolve():
        raise CliError(f"the output {out_path} is the --orig image; name another with --out")
    with _file_errors(container):
        enc = codec.read_sic(container)
        # a parseable header may still name a block or an atom count that
        # no dictionary has
        dict2d = Dictionary2D(assemble_dictionary(enc.kind, enc.block_size))
        image = codec.decode(enc, dict2d)
    pixels = codec.clamp_to_u8(image)
    # --orig is checked before the output is written, so a bad original leaves none
    if args.orig:
        with _file_errors(args.orig):
            original = codec.read_pgm(args.orig)
            psnrs = f"psnr_u8={codec.psnr(original, pixels):.2f} psnr={codec.psnr(original, image):.2f}"
    with _file_errors(out_path):
        codec.write_pgm(out_path, pixels)
    print(f"{container} -> {out_path} ({enc.width}x{enc.height}, {enc.kind.value})")
    if args.orig:
        print(psnrs)
    return EXIT_OK


def _merge_reports(paths) -> tuple[dict[str, dict[str, float]], float]:
    """Each image's compression ratio per method, in first-seen order, and the reports' one PSNR target."""
    table: dict[str, dict[str, float]] = {}
    target: float | None = None
    for path in paths:
        with _file_errors(path):
            for row in read_report(path):
                row_target = float(row["psnr_target"])
                if target is None:
                    target = row_target
                elif row_target != target:
                    raise CliError(
                        f"{path}: PSNR target {row_target} differs from {target}; "
                        "reports must share one target"
                    )
                method = _METHOD_OF_KIND.get(row["dictionary"], row["dictionary"])
                table.setdefault(row["image"], {})[method] = float(row["cr"])
    return table, target if target is not None else 0.0


def cmd_table(args) -> int:
    table, target = _merge_reports(args.reports)
    methods = [m for m in METHODS if any(m in row for row in table.values())]
    width = max([len("image")] + [len(name) for name in table])

    def print_row(first: str, cells: list[str]) -> None:
        print("  ".join([first.ljust(width)] + [cell.rjust(10) for cell in cells]))

    print(f"compression ratios at PSNR {target:g} dB")
    print_row("image", methods)
    for name in table:
        print_row(name, [f"{table[name][m]:.2f}" if m in table[name] else "-" for m in methods])

    if args.csv:
        with _file_errors(args.csv), open(args.csv, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["image"] + methods)
            for name in table:
                writer.writerow(
                    [name] + [repr(table[name][m]) if m in table[name] else "" for m in methods]
                )

    if args.reference:
        print("\nmeasured / reference at 40 dB")
        for name in table:
            ref_row = REFERENCE_CR_40DB.get(_REFERENCE_ALIASES.get(name.lower(), name.lower()))
            if ref_row is not None:
                measured = table[name]
                print_row(name, [f"{measured[m] / ref_row[m]:.3f}" if m in measured else "-" for m in methods])
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "encode":
            return cmd_encode(args)
        if args.command == "decode":
            return cmd_decode(args)
        return cmd_table(args)
    except CliError as exc:
        print(f"sparseimg: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
