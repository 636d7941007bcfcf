"""``--long-run`` turns on the tests marked ``long_run``, which take
minutes; without it they are skipped, so the default run stays short."""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--long-run", action="store_true", default=False,
        help="also run the tests marked long_run (minutes each)",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "long_run: takes minutes; runs only with --long-run")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--long-run"):
        return
    skip = pytest.mark.skip(reason="takes minutes; pass --long-run")
    for item in items:
        if "long_run" in item.keywords:
            item.add_marker(skip)
