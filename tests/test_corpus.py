"""Codec checks on the benchmark's seeded synthetic corpus.

Unlike the classic test photographs, the corpus is always available, so
these checks run everywhere. The images and their encodes come from
``tests/_corpus.py``, which ``tests/test_golden.py`` shares.

Run with ``pytest tests/test_corpus.py -v -s`` to see the compression
ratios. They are printed without a gate, except on the paper's regime:
the centre of ``mixed``, where the paper's 1.5x gain over block DCT and
CDF 9/7 is checked.
"""

import pytest
from _corpus import CONFIG_IDS, CONFIGS, CROP, MIXED_CENTRE, SEED, TARGET_DB, corpus, crop, dictionary, encoded, kept

from sparseimg import DictionaryKind, decode, psnr
from sparseimg.codec import deserialize, serialize


@pytest.mark.parametrize("kind, L", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("name", corpus.NAMES)
def test_decode_meets_target_and_container_round_trips(name, kind, L):
    img, d = crop(name), dictionary(kind, L)
    enc, report = encoded(name, kind, L)
    decoded = decode(enc, d)
    achieved = psnr(img, decoded)
    assert achieved >= TARGET_DB, f"{name}: {achieved:.2f} dB"

    payload = serialize(enc)
    parsed = deserialize(payload)
    assert serialize(parsed) == payload
    assert decode(parsed, d).tobytes() == decoded.tobytes()

    data = img.as_float()
    dct_kept, cdf_kept = kept(name, L)
    print(
        f"corpus seed {SEED} {name} {CROP}x{CROP} {kind.value} L={L}: {achieved:.2f} dB, "
        f"CR omp={report.compression_ratio:.2f} dct={data.size / dct_kept:.2f} "
        f"cdf97={data.size / cdf_kept:.2f}"
    )


def test_paper_gain_on_the_mixed_centre():
    # fixed before its first measurement: corpus mixed, seed 2, the centre
    # 256x256 crop, 40 dB, omp_linear and block DCT at L = 16, CDF 9/7 at 5 levels
    img = crop(MIXED_CENTRE)
    _, report = encoded(MIXED_CENTRE, DictionaryKind.DCT2_LINEAR, 16)
    data = img.as_float()
    dct_kept, cdf_kept = kept(MIXED_CENTRE, 16)
    vs_dct = report.compression_ratio / (data.size / dct_kept)
    vs_cdf97 = report.compression_ratio / (data.size / cdf_kept)
    print(f"corpus seed 2 mixed centre 256x256: CR omp/dct={vs_dct:.3f} omp/cdf97={vs_cdf97:.3f}")
    assert vs_dct >= 1.5
    assert vs_cdf97 >= 1.5
