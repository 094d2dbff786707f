"""``decode`` on the golden cases against each block's own synthesis.

Every block of the decoded image must be byte-equal to
``synthesize(flats[None], coeffs[None])[0]`` over that block's atoms alone:
``decode`` batches the blocks of each atom count, and a batch may not change
a bit. ``golden.json`` pins the containers, not the decoded pixels; this
test pins those against the dictionary's own synthesis, and CI runs it at
the default and at one BLAS thread.
"""

import numpy as np
import pytest
from _corpus import dictionary, encoded
from make_golden import CASES

from sparseimg import decode
from sparseimg.codec import to_blocks


@pytest.mark.parametrize("case", list(CASES))
def test_each_decoded_block_is_its_own_synthesis(case):
    name, kind, L = CASES[case]
    enc, _ = encoded(name, kind, L)
    d = dictionary(kind, L)
    got = to_blocks(decode(enc, d), L).reshape(-1, L, L)
    ends = np.cumsum(enc.counts)
    for n, (start, end) in enumerate(zip((ends - enc.counts).tolist(), ends.tolist())):
        want = d.synthesize(enc.flats[None, start:end], enc.coeffs[None, start:end])[0]
        assert got[n].tobytes() == want.tobytes(), f"{case}: block {divmod(n, enc.grid[1])}"
