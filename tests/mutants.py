"""Mutation run: does the test suite notice each of a list of planted faults?

    python tests/mutants.py

Each mutant is ``(file, old text, new text, why, killing test file)``. The
files the suite reads (``src/``, ``tests/``, ``perfbench/``, ``README.md``
and ``pyproject.toml``) are copied from the tree this script sits in into a
temporary directory, so it runs from a clone, an unpacked archive or any
other copy, and it judges the files as they are, committed or not. There
the old text (which must occur exactly once) is replaced by the new. The
named test file runs first with ``pytest -x -q``; the whole suite runs only
if no test of that file fails. A mutant is killed when a test fails
or a run times out, and survives when the whole suite passes. A named file
that does not kill its mutant by itself fails the run, even when the whole
suite kills it.
A clean copy runs first, so a suite that already fails kills nothing by
accident.

``MUTANTS`` must all be killed. ``SURVIVORS`` change only which scratch rows
the pursuit computes, so every output stays the same and they must survive;
they name no file, since the whole suite runs for them anyway. An old text
that no longer matches its file is an error: the list follows the code.
Exit status 0 means every mutant met its expectation and every named file
killed its own mutant.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PURSUIT = "src/sparseimg/pursuit.py"
CODEC = "src/sparseimg/codec.py"
BASELINES = "src/sparseimg/baselines.py"
DICTIONARY = "src/sparseimg/dictionary.py"
TIMEOUT_S = 600
WORKERS = 2
SUITE_FILES = ("src", "tests", "perfbench", "README.md", "pyproject.toml")

MUTANTS = [
    (PURSUIT, "TIE_TOL = 1e-12", "TIE_TOL = 1e-3",
     "a tie window wide enough to pick atoms whose correlations really differ",
     "tests/test_golden.py"),
    (PURSUIT, "cap = dim if rule.atom_cap is None else rule.atom_cap", "cap = dim",
     "pursue ignores a rule's atom cap and pursues each signal up to its dimension",
     "tests/test_pursuit.py"),
    (PURSUIT, "(rows.sse <= threshold) | (rows.k == cap)", "rows.sse <= threshold",
     "rows that hold the atom cap keep being pursued",
     "tests/test_cli.py"),
    (PURSUIT, "if capacity != rows.capacity or 2 * n_live < len(rows):", "if False:",
     "the group never moves to a larger capacity",
     "tests/test_acceptance.py"),
    (PURSUIT, "1 << steps.bit_length()", "1 << (steps - 1).bit_length()",
     "the capacity grows one step late, so a row can fill its factor",
     "tests/test_acceptance.py"),
    (PURSUIT, "_capacity(state.k + len(state.masked), state.capacity)", "_capacity(state.k, state.capacity)",
     "the stepwise state counts accepted atoms only, not masked ones, as its steps",
     "tests/test_pursuit.py"),
    (PURSUIT, "np.minimum(rows.k, K - 1)", "rows.k",
     "no write-slot clip: a full retired row writes past its factor",
     "tests/test_cli.py"),
    (PURSUIT, "tried = [*rows.flats[0, : state.k], *state.masked]", "tried = [*rows.flats[0, : state.k]]",
     "select_atom offers masked atoms again",
     "tests/test_pursuit.py"),
    (PURSUIT, "pos[tied] = (mag[tied] >= floor[tied, None]).argmax(axis=1)",
     "pos[tied] = mag.shape[1] - 1 - (mag[tied] >= floor[tied, None])[:, ::-1].argmax(axis=1)",
     "ties go to the largest address",
     "tests/test_pursuit.py"),
    (PURSUIT, "    if len(tied):", "    if False:",
     "no tie fallback: the first maximum wins over a smaller address inside the tie window",
     "tests/test_pursuit.py"),
    (PURSUIT, "        if capacity > signal.size:\n", "        if False:\n",
     "the stepwise state takes a capacity above the signal dimension",
     "tests/test_pursuit.py"),
    (PURSUIT, "    if not finite.all():", "    if False:",
     "pursue takes a signal that holds a nan, and its pursuit never ends",
     "tests/test_pursuit.py"),
    (PURSUIT, "        if not np.isfinite(signal).all():\n", "        if False:\n",
     "the stepwise state takes a signal that holds a nan or an inf",
     "tests/test_pursuit.py"),
    (PURSUIT, "max(1, math.ceil(count / group))", "max(1, round(count / group))",
     "a stack a little over a whole number of groups is split into fewer, so a group exceeds its budget",
     "tests/test_pursuit.py"),
    (PURSUIT, "rows.coeffs += new_row[:, K, None] * new_row[:, :K]",
     "rows.coeffs += (1 + 1e-9) * new_row[:, K, None] * new_row[:, :K]",
     "coefficient updates off by a relative 1e-9",
     "tests/test_cli.py"),
    (CODEC, "        image = ImageGray8.from_array(image)\n",
     "        a = np.asarray(image).astype(np.uint8)\n"
     "        image = ImageGray8(width=a.shape[-1], height=a.shape[0], pixels=a)\n",
     "write_pgm casts any array to uint8, so 300.0 is written as 44",
     "tests/test_codec.py"),
    (CODEC, "    if len(missed):", "    if False:",
     "encode keeps a block that holds all L * L atoms and still misses its threshold",
     "tests/test_cli.py"),
    (CODEC, "sse > threshold", "sse >= threshold",
     "encode reports a block whose SSE equals its threshold, which pursue retires as met, as a miss",
     "tests/test_codec.py"),
    (CODEC, 'not re.fullmatch(rb"-?[0-9]+", word)', 'not re.fullmatch(rb"[-+]?[0-9_]+", word)',
     "read_pgm takes header numbers with a sign or underscores, as int() does",
     "tests/test_codec.py"),
    (CODEC, "(a.size == 0 or (a.min() >= 0 and a.max() <= 255))", "(a.min() >= 0 and a.max() <= 255)",
     "from_array fails inside numpy on an empty integer array",
     "tests/test_codec.py"),
    (CODEC,
     "    a = s = 0  # the run's first block in that order, and its first atom\n"
     "    for run in _runs(groups, L):\n"
     "        b, e = a + sum(n for n, _ in run), s + sum(n * k for n, k in run)\n"
     "        run_atoms = atoms[s:e]\n"
     "        left, right = dict2d.factors(enc.flats[run_atoms], enc.coeffs[run_atoms])\n"
     "        stack = np.empty((b - a, L, L))\n"
     "        # One product per atom count, each block at its own: BLAS does not\n"
     "        # promise that a sum padded with zero terms rounds as the sum does.\n"
     "        i = t = 0  # where the piece's blocks start in the stack, and its atoms in the factors\n"
     "        for n, k in run:\n"
     "            u = t + n * k\n"
     "            np.matmul(left[t:u].reshape(n, k, L).swapaxes(1, 2), right[t:u].reshape(n, k, L), out=stack[i : i + n])\n"
     "            i, t = i + n, u\n"
     "        blocks[rows[a:b], cols[a:b]] = stack\n"
     "        a, s = b, e\n",
     "    k = int(counts.max())\n"
     "    at = np.minimum((np.cumsum(counts) - counts)[:, None] + np.arange(k), len(enc.flats) - 1)\n"
     "    real = np.arange(k) < counts[:, None]\n"
     "    tiles = dict2d.synthesize(np.where(real, enc.flats[at], 0), np.where(real, enc.coeffs[at], 0.0))\n"
     "    blocks[divmod(np.arange(len(counts)), n_cols)] = tiles\n",
     "decode synthesizes every block at the largest atom count, padded with zero coefficients",
     "tests/test_codec.py"),
    (CODEC, "    rows, cols = divmod(order, n_cols)\n", "    rows, cols = divmod(np.arange(len(counts)), n_cols)\n",
     "decode writes each group to the first blocks in block order, not to its own blocks",
     "tests/test_codec.py"),
    (CODEC, "                yield run\n                run, need = [], 0\n", "                run, need = [], 0\n",
     "decode drops a run when the next one starts, so its blocks are never written",
     "tests/test_codec.py"),
    (CODEC, "    rounded = np.rint(image)\n", "    rounded = np.rint(image, out=image)\n",
     "clamp_to_u8 rounds and clips its argument in place",
     "tests/test_codec.py"),
    (CODEC, "_ENTRY.itemsize * (ends - counts)", "_ENTRY.itemsize * ends",
     "serialize puts each block's count after its entries, not in front of them",
     "tests/test_container_properties.py"),
    (CODEC, "data[pos] | data[pos + 1] << 8", "data[pos] << 8 | data[pos + 1]",
     "deserialize reads each block's count big-endian",
     "tests/test_codec.py"),
    (CODEC, "            count = (size - pos) // entry\n", "            count = (size - pos) // entry - 1\n",
     "deserialize slices a truncated block's run one entry short",
     "tests/test_codec.py"),
    (CODEC, "        t = int(bad[0])\n        at = _HEADER.size", "        t = int(bad[-1])\n        at = _HEADER.size",
     "deserialize reports the last bad entry instead of the first",
     "tests/test_codec.py"),
    (CODEC, "    bad = np.flatnonzero((flats >= n_base * n_base) | ~(np.abs(coeffs) <= MAX_COEFF))",
     "    bad = np.flatnonzero(flats >= n_base * n_base)",
     "deserialize no longer checks the coefficient range",
     "tests/test_codec.py"),
    (CODEC, " and np.maximum.reduce(np.abs(coeffs)) <= MAX_COEFF\n", "\n",
     "deserialize's range reduction leaves out the coefficients, so a nan or huge one is read",
     "tests/test_codec.py"),
    (CODEC, "if block == 0 or width % block or height % block:", "if block == 0:",
     "deserialize takes a block size that does not tile the image",
     "tests/test_codec.py"),
    (CODEC, "        if self.total_atoms == 0:\n            return math.inf\n",
     "        if self.total_atoms == 0:\n            return 0.0\n",
     "an image that holds no atoms reports a compression ratio of 0",
     "tests/test_codec.py"),
    (CODEC, "if len(counts) and np.minimum.reduce(counts) < 0:", "if False:",
     "the constructor accepts a negative count",
     "tests/test_codec.py"),
    (CODEC, "if np.add.reduce(counts) != len(flats) or len(flats) != len(coeffs):", "if False:",
     "the constructor accepts counts that do not sum to the columns",
     "tests/test_codec.py"),
    (CODEC, "(np.minimum.reduce(flats) < 0 or int(np.maximum.reduce(flats)) >= n_base * n_base)",
     "int(np.maximum.reduce(flats)) >= n_base * n_base",
     "the constructor accepts negative flats, which decode wraps to other atoms",
     "tests/test_codec.py"),
    (CODEC, "(np.minimum.reduce(flats) < 0 or int(np.maximum.reduce(flats)) >= n_base * n_base)",
     "np.minimum.reduce(flats) < 0",
     "the constructor accepts flats at or above n_base**2",
     "tests/test_codec.py"),
    (CODEC, "self._header()[:-1] == other._header()[:-1]\n            and np.array_equal(self.target_psnr, other.target_psnr, equal_nan=True)",
     "self._header() == other._header()",
     "an image whose target is nan is not equal to itself",
     "tests/test_codec.py"),
    (CODEC, "        if not (block_size >= 1 and width % block_size == 0 and height % block_size == 0):\n", "        if False:\n",
     "the constructor accepts a block size that does not tile the image",
     "tests/test_codec.py"),
    (CODEC, "        end = int(enc._ends[n])\n", "        end = int(np.cumsum(enc.counts)[n])\n",
     "every enc.blocks access sums all the counts again",
     "tests/test_codec.py"),
    (CODEC, "            n = _block_of(self._ends, t)\n", '            n = int(np.searchsorted(self._ends, t, side="left"))\n',
     "the constructor names the block before when the bad flat is the first atom of its block",
     "tests/test_codec.py"),
    (CODEC, "if 0.0 < ratio < math.inf else", "if ratio < math.inf else",
     "psnr raises 'math domain error' for an infinite MSE",
     "tests/test_baselines.py"),
    (CODEC, "if 0.0 < ratio < math.inf else", "if 0.0 < ratio else",
     "psnr reads an MSE below 255**2 / DBL_MAX as inf, the PSNR of equal images",
     "tests/test_codec.py"),
    (BASELINES, "keep[ties[: count - np.searchsorted(ranked, m)]] = True",
     "keep[ties[len(ties) - (count - np.searchsorted(ranked, m)) :]] = True",
     "a probe keeps the ties at its magnitude from the largest index",
     "tests/test_threshold_properties.py"),
    (BASELINES, "residual * (1.0 + rho) + 2.0**-30", "2.0**-30",
     "the Parseval margin leaves out the residual of every coefficient kept",
     "tests/test_threshold_properties.py"),
    (BASELINES, "+ 2.0**-30 * float(", "+ 0.0 * float(",
     "the Parseval margin has no allowance for the rounding of the block products",
     "tests/test_baselines.py"),
    (BASELINES, "    psnr_to_block_sse(target_db, 1)  # raises ValueError unless target_db > 0\n", "",
     "threshold_to_psnr accepts a target that is not > 0",
     "tests/test_baselines.py"),
    (BASELINES, "    if mse < 2.0**-1000:", "    if False:",
     "the Parseval rule settles probes where squares that underflow hide more than its margin",
     "tests/test_baselines.py"),
    (BASELINES, "np.isfinite(coeffs.values).all() and np.isfinite(img).all()", "np.isfinite(img).all()",
     "threshold_to_psnr searches transform values that hold a nan or an inf",
     "tests/test_baselines.py"),
    (BASELINES, "np.isfinite(coeffs.values).all() and np.isfinite(img).all()", "np.isfinite(coeffs.values).all()",
     "threshold_to_psnr searches against an image that holds a nan or an inf",
     "tests/test_baselines.py"),
    (BASELINES, "    if not achieved >= target_db:", "    if achieved < target_db:",
     "threshold_to_psnr reports success at a nan PSNR",
     "tests/test_baselines.py"),
    (BASELINES, "    @functools.cache\n", "",
     "the exact probe is not memoized, so a count can run its inverse transform twice",
     "tests/test_baselines.py"),
    (BASELINES, "math.sqrt(n * mse_at(n))", "math.sqrt(n * mse_at(0))",
     "the Parseval rule reads the keep-nothing probe as its residual, which then settles nothing",
     "tests/test_baselines.py"),
    (BASELINES, "        if count == flat.size:", "        if count >= flat.size - 1:",
     "the keep-all probe's shortcut fires one count early and keeps the smallest value too",
     "tests/test_threshold_properties.py"),
    (BASELINES, "range(0, a.shape[1], LIFT_STRIP)", "range(0, a.shape[1] - a.shape[1] % LIFT_STRIP, LIFT_STRIP)",
     "the lifting passes skip the last column strip where it is narrower than the others",
     "tests/test_baselines.py"),
    (BASELINES, "    if L < 1:\n", "    if False:\n",
     "the block DCT takes a block size that is not positive and fails inside numpy",
     "tests/test_baselines.py"),
    (DICTIONARY,
     "        row[:] = np.cos(np.pi * (2.0 * j - 1.0) * idx / (4.0 * L))\n        row /= np.linalg.norm(row)\n",
     "        row[:] = np.cos(np.pi * (2.0 * j - 1.0) * idx / (4.0 * L))\n"
     "    atoms /= np.linalg.norm(atoms, axis=1)[:, None]\n",
     "the cosine atoms are normalized by one norm over the axis, which rounds some entries differently",
     "tests/test_cli.py"),
    (DICTIONARY, "        row[lo:hi] = proto.values[lo - t : hi - t]\n        row /= np.linalg.norm(row)\n",
     "        row[lo:hi] = proto.values[lo - t : hi - t]\n        row /= np.linalg.norm(proto.values)\n",
     "a spline translate cut at the block boundary is scaled by the whole prototype's norm",
     "tests/test_dictionary.py"),
]

SURVIVORS = [
    (PURSUIT, "if capacity != rows.capacity or 2 * n_live < len(rows):", "if capacity != rows.capacity:",
     "retired rows are compacted only when the capacity grows; they are scratch, so no output changes", None),
    (PURSUIT, "if capacity != rows.capacity or 2 * n_live < len(rows):",
     "if capacity != rows.capacity or 4 * n_live < len(rows):",
     "retired rows are compacted once they are three quarters; they are scratch, so no output changes", None),
]


def copy_suite(dest: Path) -> None:
    """Copy the files the suite reads, without caches or benchmark results."""
    dest.mkdir(exist_ok=True)
    for name in SUITE_FILES:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".*", "results"))
        else:
            shutil.copy2(source, dest / name)


def apply(copy: Path, file: str, old: str, new: str) -> None:
    path = copy / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"mutants.py: {file}: the old text occurs {text.count(old)} times, not once: {old!r}")
    path.write_text(text.replace(old, new))


def run_tests(copy: Path, *paths: str) -> str | None:
    """None when the tests at ``paths`` (the whole suite if none) pass, else
    the first failing test, 'timeout' or, for the whole suite, the exit
    status. A named file whose run fails without a failing test (a name
    that matches no file, say) passes here: only a test kills."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-rfE", *paths],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    if failed:
        return failed[1]
    return f"pytest exit {proc.returncode}" if proc.returncode and not paths else None


def trial(mutant, base: Path) -> tuple[str | None, bool]:
    """The mutant's verdict, as :func:`run_tests` gives it, and whether its
    named file killed it."""
    file, old, new, _, killer = mutant
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        copy = Path(tmp)
        copy_suite(copy)
        apply(copy, file, old, new)
        if killer is not None:
            failure = run_tests(copy, killer)
            if failure is not None:
                return failure, True
        return run_tests(copy), False


def main() -> int:
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp)
        clean = base / "clean"
        copy_suite(clean)
        for file, old, _, _, _ in MUTANTS + SURVIVORS:  # every old text must match before anything runs
            apply(clean, file, old, old)
        failure = run_tests(clean)
        if failure is not None:
            print(f"the unmutated suite fails ({failure}); no mutant can be judged")
            return 1
        cases = [(m, True) for m in MUTANTS] + [(m, False) for m in SURVIVORS]
        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(lambda case: trial(case[0], base), cases))
    wrong = 0
    for ((file, _, _, why, killer), should_kill), (failure, by_killer) in zip(cases, results):
        verdict = "survived" if failure is None else f"killed by {failure}"
        met = (failure is not None) == should_kill and (killer is None or by_killer)
        wrong += not met
        print(f"{'ok ' if met else 'BAD'} {verdict:<70} {Path(file).name}: {why}")
        if killer is not None and not by_killer:
            print(f"    its named file {killer} did not kill it")
    print(f"{len(cases) - wrong} of {len(cases)} mutants as expected in {time.monotonic() - started:.0f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
