import os
import pathlib

import pytest
from hypothesis import settings

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

# under CI every property draws the same examples on every run, and keeps no example
# database between runs, so a failure there is reproducible from the commit alone
settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return REPO_ROOT / "data"
