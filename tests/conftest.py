import importlib
import os
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import sparseimg
from sparseimg import Dictionary2D, DictionaryKind, ImageGray8, assemble_dictionary

# Hypothesis mixes constants from the local modules loaded so far into what
# it draws. Every run loads every module of the package here, before any
# test, so that a test file run alone draws the examples the whole suite
# draws.
for _module in pkgutil.iter_modules(sparseimg.__path__):
    importlib.import_module(f"sparseimg.{_module.name}")

REPO = Path(__file__).resolve().parent.parent


def local_modules() -> set[str]:
    """Modules loaded from this repository outside ``tests/``, which is what
    Hypothesis counts as local here (it skips test directories itself)."""
    names = set()
    for name, module in list(sys.modules.items()):
        path = getattr(module, "__file__", None)
        if path is None:
            continue
        parents = Path(os.path.realpath(path)).parents
        if REPO in parents and REPO / "tests" not in parents and "site-packages" not in Path(path).parts:
            names.add(name)
    return names


LOADED_BY_CONFTEST = local_modules()


@pytest.fixture(scope="session", autouse=True)
def no_local_module_loads_after_the_conftest():
    """Fails the run if a test loaded a local module the conftest did not:
    the examples drawn after it would differ from a run that never loads it."""
    yield
    late = sorted(local_modules() - LOADED_BY_CONFTEST)
    assert not late, f"loaded after tests/conftest.py, which should import them: {late}"

# Directory scanned for the classic 512x512 grayscale test images
# (boat/bridge/lena/mandrill/peppers as binary PGM). They are not
# redistributable, so tests depending on them skip when absent.
CLASSIC_DIR = Path(os.environ.get("SPARSEIMG_TEST_IMAGES", Path(__file__).parent.parent / "data"))


def synthetic_image(height: int = 32, width: int = 32) -> ImageGray8:
    """Deterministic smooth-plus-texture test image."""
    y, x = np.mgrid[0:height, 0:width].astype(np.float64)
    vals = (
        96.0
        + 48.0 * np.sin(2 * np.pi * x / 17.0) * np.cos(2 * np.pi * y / 23.0)
        + 64.0 * (x + y) / (width + height)
        + 16.0 * ((x.astype(int) // 4 + y.astype(int) // 4) % 2)
    )
    return ImageGray8.from_array(np.clip(np.rint(vals), 0, 255).astype(np.uint8))


@pytest.fixture(scope="session")
def dict1_linear16():
    return assemble_dictionary(DictionaryKind.DCT2_LINEAR, 16)


@pytest.fixture(scope="session")
def dict2_linear16(dict1_linear16):
    return Dictionary2D(dict1_linear16)


@pytest.fixture(scope="session")
def dict1_cubic16():
    return assemble_dictionary(DictionaryKind.DCT2_CUBIC, 16)


@pytest.fixture(scope="session")
def dict2_cubic16(dict1_cubic16):
    return Dictionary2D(dict1_cubic16)


@pytest.fixture()
def small_image():
    return synthetic_image(32, 32)
