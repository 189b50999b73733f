import os
from pathlib import Path

import numpy as np
import pytest

# Tests that run `python -m srkit.cli` in a subprocess import srkit from this
# checkout too, as pytest's `pythonpath` setting does for the test process.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
