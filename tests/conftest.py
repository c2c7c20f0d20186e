import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

sys.path.insert(0, str(Path(__file__).parent))

from annuflow.grid import make_annulus
from annuflow.steady import Profile1D


@pytest.fixture(scope="session")
def grid64():
    return make_annulus(1.0, 2.0, 64, 128)


@pytest.fixture(scope="session")
def grid32():
    return make_annulus(1.0, 2.0, 32, 64)


@pytest.fixture(scope="session")
def grid_radial128():
    # fine radial resolution, coarse angular: radial test solutions only
    return make_annulus(1.0, 2.0, 128, 16)


@pytest.fixture(scope="session")
def grid16x70():
    # Ns with factors 5 and 7: the FFT leaves a radial psi varying in theta
    # by rounding (1.4e-17 for the linear profile)
    return make_annulus(1.0, 2.0, 16, 70)


@pytest.fixture(scope="session")
def bump_profile():
    # the target profile of the reference inversion (acceptance criterion 10)
    def bumped(s):
        u = np.clip((s + 0.45) / 0.3, -1, 1)
        return 0.5 * s - 1.0 + 0.02 * (1 - u**2) ** 3

    return Profile1D.from_callable(bumped, -3.0, strictly_monotone=True)


@pytest.fixture
def splu_calls(monkeypatch):
    """Shapes of the matrices that scipy's sparse LU factorizes during the
    test, from any caller."""
    calls = []
    splu = spla.splu

    def counted(A, *args, **kwargs):
        calls.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    return calls
