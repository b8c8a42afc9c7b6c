"""Fixtures shared by the harness tests."""

import pytest

from repro.harness import soak
from repro.harness.experiments import run_experiment


@pytest.fixture(scope="session")
def quick_update_storm():
    """One quick update-storm, run through the experiment registry with
    the BENCH writer recorded instead of called: ``(result, calls)``.

    The storm is the slowest quick soak, so the tests that only read a
    finished run share this one; the bit-identical check still compares
    it with a second, independent run.
    """
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(soak, "write_bench_record",
                      lambda *a, **k: calls.append((a, k)))
        result = run_experiment("update-storm", quick=True)
    return result, calls
