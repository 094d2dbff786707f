"""The codec's outputs on the corpus cases against ``tests/golden.json``.

Per-block atom counts, the address stream and the baselines' kept counts
must match exactly. Coefficient energies and the achieved PSNR must match
to a relative 1e-9: their last bits depend on the BLAS build. For the same
reason the container SHA-256s are printed (run with ``-s``), not checked.
``tests/make_golden.py`` writes the file.
"""

import json

import numpy as np
import pytest
from make_golden import CASES, GOLDEN, record

golden = json.loads(GOLDEN.read_text())["cases"]


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_match_golden(case):
    want, got = golden[case], record(case)
    same = "same as" if got["container_sha256"] == want["container_sha256"] else "differs from"
    print(f"{case}: container sha256 {got['container_sha256']} ({same} golden.json)")
    assert got["atoms"] == want["atoms"]
    assert got["address_sha256"] == want["address_sha256"]
    assert (got["dct_kept"], got["cdf97_kept"]) == (want["dct_kept"], want["cdf97_kept"])
    np.testing.assert_allclose(got["coeff_sumsq"], want["coeff_sumsq"], rtol=1e-9, atol=0)
    assert got["psnr"] == pytest.approx(want["psnr"], rel=1e-9, abs=0)
