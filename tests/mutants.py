"""Mutation run: does the test suite notice each of a list of planted faults?

    python tests/mutants.py

Each mutant is ``(file, old text, new text, why)``. The committed tree at
``HEAD`` is exported with ``git archive`` into a temporary directory, the old
text (which must occur exactly once) is replaced by the new, and
``pytest -x -q`` runs there. A mutant is killed when the suite fails or
times out, and survives when it passes. A clean copy runs first, so a suite
that already fails kills nothing by accident.

``MUTANTS`` must all be killed. ``SURVIVORS`` change only which scratch rows
the pursuit computes, so every output stays the same and they must survive.
An old text that no longer matches its file is an error: the list follows
the code. Exit status 0 means every mutant met its expectation.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PURSUIT = "src/sparseimg/pursuit.py"
CODEC = "src/sparseimg/codec.py"
TIMEOUT_S = 600
WORKERS = 2

MUTANTS = [
    (PURSUIT, "TIE_TOL = 1e-12", "TIE_TOL = 1e-3",
     "a tie window wide enough to pick atoms whose correlations really differ"),
    (PURSUIT, "(rows.sse <= threshold) | (rows.k == cap)", "rows.sse <= threshold",
     "rows that hold the atom cap keep being pursued"),
    (PURSUIT, "if capacity != rows.capacity or 2 * n_live < len(rows):", "if False:",
     "the group never moves to a larger capacity"),
    (PURSUIT, "1 << steps.bit_length()", "1 << (steps - 1).bit_length()",
     "the capacity grows one step late, so a row can fill its factor"),
    (PURSUIT, "_capacity(state.k + len(state.masked), state.capacity)", "_capacity(state.k, state.capacity)",
     "the stepwise state counts accepted atoms only, not masked ones, as its steps"),
    (PURSUIT, "np.minimum(rows.k, K - 1)", "rows.k",
     "no write-slot clip: a full retired row writes past its factor"),
    (PURSUIT, "tried = [*rows.flats[0, : state.k], *state.masked]", "tried = [*rows.flats[0, : state.k]]",
     "select_atom offers masked atoms again"),
    (PURSUIT, "pos = (mag >= (top * (1.0 - TIE_TOL))[:, None]).argmax(axis=1)",
     "pos = mag.shape[1] - 1 - (mag >= (top * (1.0 - TIE_TOL))[:, None])[:, ::-1].argmax(axis=1)",
     "ties go to the largest address"),
    (PURSUIT, "rows.coeffs += new_row[:, K, None] * new_row[:, :K]",
     "rows.coeffs += (1 + 1e-9) * new_row[:, K, None] * new_row[:, :K]",
     "coefficient updates off by a relative 1e-9"),
    (CODEC, "        image = ImageGray8.from_array(image)\n",
     "        a = np.asarray(image).astype(np.uint8)\n"
     "        image = ImageGray8(width=a.shape[-1], height=a.shape[0], pixels=a)\n",
     "write_pgm casts any array to uint8, so 300.0 is written as 44"),
    (CODEC, "    if len(missed):", "    if False:",
     "encode keeps a block that holds all L * L atoms and still misses its threshold"),
    (CODEC, 'not re.fullmatch(rb"-?[0-9]+", word)', 'not re.fullmatch(rb"[-+]?[0-9_]+", word)',
     "read_pgm takes header numbers with a sign or underscores, as int() does"),
    (CODEC, "(a.size == 0 or (a.min() >= 0 and a.max() <= 255))", "(a.min() >= 0 and a.max() <= 255)",
     "from_array fails inside numpy on an empty integer array"),
    (CODEC,
     "    start = 0\n"
     "    for k, a, b in zip(ks.tolist(), firsts.tolist(), [*firsts[1:].tolist(), len(counts)]):\n"
     "        stop = start + (b - a) * k\n"
     "        tiles[order[a:b]] = dict2d.synthesize(flats[start:stop].reshape(b - a, k), coeffs[start:stop].reshape(b - a, k))\n"
     "        start = stop\n",
     "    k = int(counts.max())\n"
     "    at = np.minimum((np.cumsum(counts) - counts)[:, None] + np.arange(k), len(enc.flats) - 1)\n"
     "    real = np.arange(k) < counts[:, None]\n"
     "    tiles = dict2d.synthesize(np.where(real, enc.flats[at], 0), np.where(real, enc.coeffs[at], 0.0))\n",
     "decode synthesizes every block at the largest atom count, padded with zero coefficients"),
    (CODEC, "        t = int(bad[0])\n        at = _HEADER.size", "        t = int(bad[-1])\n        at = _HEADER.size",
     "deserialize reports the last bad entry instead of the first"),
    (CODEC, "    bad = np.flatnonzero((flats >= n_base * n_base) | ~(np.abs(coeffs) <= MAX_COEFF))",
     "    bad = np.flatnonzero(flats >= n_base * n_base)",
     "deserialize no longer checks the coefficient range"),
    (CODEC, "if len(counts) and np.minimum.reduce(counts) < 0:", "if False:",
     "the constructor accepts a negative count"),
    (CODEC, "if np.add.reduce(counts) != len(flats) or len(flats) != len(coeffs):", "if False:",
     "the constructor accepts counts that do not sum to the columns"),
    (CODEC, "(np.minimum.reduce(flats) < 0 or int(np.maximum.reduce(flats)) >= n_base * n_base)",
     "int(np.maximum.reduce(flats)) >= n_base * n_base",
     "the constructor accepts negative flats, which decode wraps to other atoms"),
    (CODEC, "(np.minimum.reduce(flats) < 0 or int(np.maximum.reduce(flats)) >= n_base * n_base)",
     "np.minimum.reduce(flats) < 0",
     "the constructor accepts flats at or above n_base**2"),
    (CODEC, "self._header()[:-1] == other._header()[:-1]\n            and np.array_equal(self.target_psnr, other.target_psnr, equal_nan=True)",
     "self._header() == other._header()",
     "an image whose target is nan is not equal to itself"),
]

SURVIVORS = [
    (PURSUIT, "if capacity != rows.capacity or 2 * n_live < len(rows):", "if capacity != rows.capacity:",
     "retired rows are compacted only when the capacity grows; they are scratch, so no output changes"),
    (PURSUIT, "if capacity != rows.capacity or 2 * n_live < len(rows):",
     "if capacity != rows.capacity or 4 * n_live < len(rows):",
     "retired rows are compacted once they are three quarters; they are scratch, so no output changes"),
]


def export_head(dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, check=True, capture_output=True).stdout
    dest.mkdir(exist_ok=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def apply(copy: Path, file: str, old: str, new: str) -> None:
    path = copy / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"mutants.py: {file}: the old text occurs {text.count(old)} times, not once: {old!r}")
    path.write_text(text.replace(old, new))


def run_suite(copy: Path) -> str | None:
    """None when the suite passes, else the first failing test (or 'timeout')."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-rfE"],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return failed[1] if failed else f"pytest exit {proc.returncode}"


def trial(mutant, base: Path) -> str | None:
    file, old, new, _ = mutant
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        copy = Path(tmp)
        export_head(copy)
        apply(copy, file, old, new)
        return run_suite(copy)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp)
        clean = base / "clean"
        export_head(clean)
        for file, old, _, _ in MUTANTS + SURVIVORS:  # every old text must match before anything runs
            apply(clean, file, old, old)
        failure = run_suite(clean)
        if failure is not None:
            print(f"the unmutated suite fails ({failure}); no mutant can be judged")
            return 1
        cases = [(m, True) for m in MUTANTS] + [(m, False) for m in SURVIVORS]
        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(lambda case: trial(case[0], base), cases))
    wrong = 0
    for ((file, _, _, why), should_kill), failure in zip(cases, results):
        verdict = "survived" if failure is None else f"killed by {failure}"
        met = (failure is not None) == should_kill
        wrong += not met
        print(f"{'ok ' if met else 'BAD'} {verdict:<70} {Path(file).name}: {why}")
    print(f"{len(cases) - wrong} of {len(cases)} mutants as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
