"""Benchmark configuration.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — workload scale (default ``small``; ``tiny`` for
  a fast smoke pass, ``medium`` for longer validation).
* ``REPRO_BENCH_APPS`` — comma-separated application subset (default: the
  full Figure 4 list).  Unknown names raise a typed
  :class:`~repro.errors.CheckError`.

Expensive figure computations are session-scoped fixtures so several
benchmark tests can share one run.
"""

from __future__ import annotations

import os

import pytest

from repro.check import select_apps
from repro.frontend.presets import RTX_2080_TI


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "small")


def bench_apps():
    # A typo in REPRO_BENCH_APPS must fail the session loudly, not
    # quietly shrink it to an empty (and instantly "passing") run —
    # select_apps raises CheckError naming the unknown ones.
    raw = os.environ.get("REPRO_BENCH_APPS", "")
    return select_apps([name.strip() for name in raw.split(",") if name.strip()])


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture(scope="session")
def apps():
    return bench_apps()


@pytest.fixture(scope="session")
def gpu():
    return RTX_2080_TI


@pytest.fixture(scope="session")
def figure4_data(scale, apps):
    from repro.eval.figures import figure4

    return figure4(scale=scale, apps=apps)
