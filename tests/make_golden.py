"""Write ``tests/golden.json``, the codec's outputs on the corpus cases.

Run from the root of a source checkout::

    PYTHONPATH=src python tests/make_golden.py

The cases are the crops of ``tests/test_corpus.py`` and the mixed centre of
its gain check. ``tests/test_golden.py`` compares each case with the file.
Only a change meant to change outputs regenerates it, and says so.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from _corpus import CONFIG_IDS, CONFIGS, MIXED_CENTRE, corpus, encoded, kept

from sparseimg import DictionaryKind
from sparseimg.codec import serialize

GOLDEN = Path(__file__).with_name("golden.json")

# case id -> (image, dictionary, block side)
CASES = {f"{name}-{cid}": (name, kind, L) for name in corpus.NAMES for (kind, L), cid in zip(CONFIGS, CONFIG_IDS)}
CASES[f"{MIXED_CENTRE}-omp_linear-16"] = (MIXED_CENTRE, DictionaryKind.DCT2_LINEAR, 16)


def record(case: str) -> dict:
    """The outputs of ``case`` that ``golden.json`` holds.

    ``address_sha256`` hashes the per-block atom counts and then every flat
    address, in container order, each as a little-endian u32.
    """
    name, kind, L = CASES[case]
    enc, report = encoded(name, kind, L)
    addresses = enc.counts.astype("<u4").tobytes() + enc.flats.astype("<u4").tobytes()
    runs = np.split(enc.coeffs, enc.counts.cumsum()[:-1])  # each block's coefficients
    dct_kept, cdf97_kept = kept(name, L)
    return {
        "atoms": enc.counts.tolist(),
        "address_sha256": hashlib.sha256(addresses).hexdigest(),
        "dct_kept": dct_kept,
        "cdf97_kept": cdf97_kept,
        "coeff_sumsq": [math.fsum(c * c for c in run.tolist()) for run in runs],
        "psnr": report.achieved_psnr,
        "container_sha256": hashlib.sha256(serialize(enc)).hexdigest(),
    }


def main() -> None:
    # one case per line keeps the file small and its diffs readable
    lines = [f"  {json.dumps(case)}: {json.dumps(record(case))}" for case in CASES]
    GOLDEN.write_text('{"cases": {\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(lines)} cases to {GOLDEN}")


if __name__ == "__main__":
    main()
