import time

import pytest

from wslrr.core import validate_joint
from wslrr.verify import VerifyConfig, random_joint, verify_all


@pytest.fixture
def toy_joint():
    """The 2x2 running example: priors (0.4, 0.6)."""
    return validate_joint(2, [[0.1, 0.2], [0.3, 0.4]], [[0.3, 0.1], [0.2, 0.4]])


@pytest.fixture
def uniform_joint():
    return validate_joint(2, [[0.0, 0.0], [1.0, 1.0]], [[0.25, 0.25], [0.25, 0.25]])


@pytest.fixture
def binary_joint():
    """Seeded strictly positive binary joint with prior away from 1/2."""
    for stream in range(0, 50, 2):
        j = random_joint(2, 5, 3, seed=101, stream=stream)
        if abs(j.joint.sum(axis=1)[0] - 0.5) > 0.05:
            return j
    raise RuntimeError("no admissible joint")


@pytest.fixture
def multi_joint():
    return random_joint(4, 6, 3, seed=202, stream=0)


@pytest.fixture(scope="session")
def default_report():
    """``verify_all`` at its default config, run once per session: (report, seconds)."""
    t0 = time.perf_counter()
    report = verify_all(VerifyConfig())
    return report, time.perf_counter() - t0
