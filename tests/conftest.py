import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

import hdspec  # noqa: E402
from hdspec import angular, bundled  # noqa: E402

# the directory the tests import hdspec from: a checkout's src/, or the site-packages of an install
HDSPEC_PATH = str(Path(hdspec.__file__).resolve().parents[1])


def run_python(*argv, timeout=120, **env):
    """Run `python *argv` in a fresh interpreter that imports the hdspec these tests import, with `env` set."""
    path = os.pathsep.join(p for p in (HDSPEC_PATH, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=timeout)


@pytest.fixture(scope="session")
def basis0():
    return angular.ProductBasis(0)


@pytest.fixture(scope="session")
def basis1():
    return angular.ProductBasis(1)


@pytest.fixture(scope="session")
def demo_sets():
    return bundled.load_demo_coefficients()


@pytest.fixture(scope="session")
def demo_table(demo_sets):
    return angular.transition_table(demo_sets[(0, 0)], demo_sets[(1, 1)], bundled.TRANSITION_LEVELS)


@pytest.fixture
def eigen_solves(monkeypatch):
    """Sizes of the blocks `angular._eigen` solves, the level solve's F blocks among them, with the level-set cache emptied first."""
    angular._solve.cache_clear()
    calls = []
    eigen = angular._eigen

    def counted(h, **kwargs):
        calls.append(len(h))
        return eigen(h, **kwargs)

    monkeypatch.setattr(angular, "_eigen", counted)
    return calls


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Shapes of the (stacked) matrices passed to numpy.linalg.eigvalsh."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls
