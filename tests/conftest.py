"""Settings for the library's tests under this directory."""

from pathlib import Path

import pytest

_TESTS = Path(__file__).parent


def pytest_collection_modifyitems(items):
    # a DeprecationWarning or RuntimeWarning fails a test here, so no test
    # comes to rely on a deprecated call and no numpy overflow or invalid
    # operation passes as a warning; the benchmark's tests are collected in
    # the same run and left alone
    for item in items:
        if _TESTS in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::DeprecationWarning"))
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
