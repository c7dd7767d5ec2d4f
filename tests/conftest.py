"""Fixtures shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.fixture(scope="session")
def bench_run():
    """``bench/run.py`` imported without running it; ``sys.path`` is restored
    afterwards, and nothing under ``bench/`` is written."""
    saved_path = list(sys.path)
    spec = importlib.util.spec_from_file_location("fabflock_bench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
    return module
