import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# (session cache directory, INDSUB_CACHE_DIR before the session or None)
_cache_dirs = pytest.StashKey[tuple]()


def pytest_configure(config):
    """Point the on-disk catalog cache at a session-private directory
    before collection, so that neither the tests nor the catalogs a test
    module builds at import read or pollute a user cache."""
    directory = tempfile.mkdtemp(prefix="indsub-cache-")
    config.stash[_cache_dirs] = (directory, os.environ.get("INDSUB_CACHE_DIR"))
    os.environ["INDSUB_CACHE_DIR"] = directory


def pytest_unconfigure(config):
    directory, previous = config.stash[_cache_dirs]
    shutil.rmtree(directory, ignore_errors=True)
    if previous is None:
        os.environ.pop("INDSUB_CACHE_DIR", None)
    else:
        os.environ["INDSUB_CACHE_DIR"] = previous


@pytest.fixture(autouse=True)
def _fresh_host_homs():
    """Start each test without the hom counts count_basis keeps for its
    last host, nor the plans, compiled joins and plan tables read from
    plan files kept per process, so a test that inspects the DP, its
    planning or a plan file sees them run rather than read what an earlier
    test left in memory.  The plan files of the
    session's cache directory stay, as the catalogs do: a test that counts
    on planning points INDSUB_CACHE_DIR at a directory of its own."""
    from indsub import counting, homcount

    counting._host_homs.cache_clear()
    homcount.plan_of.cache_clear()
    homcount._compiled.cache_clear()
    homcount.load_plans.cache_clear()
