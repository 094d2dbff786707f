"""The README's claims that a test can check: the Python snippet of its
Library section runs as written, and the package needs numpy only."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import synthetic_image

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]


def test_the_library_snippet_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    np.save("image.npy", synthetic_image(32, 32).pixels)
    exec(compile(library_snippet(), str(README), "exec"), {})
    ratio, achieved, restored = (float(word) for word in capsys.readouterr().out.split())
    assert ratio > 1.0
    assert achieved >= 40.0
    assert restored == pytest.approx(achieved, rel=1e-9)


def test_the_package_and_its_cli_load_no_scipy():
    """The suite itself imports scipy, so a fresh interpreter does the import."""
    probe = "import sys, sparseimg, sparseimg.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
