"""Pytest set-up for the benchmark's own tests."""

import os

import pytest


@pytest.fixture(autouse=True)
def _no_repro_knobs(monkeypatch):
    """Test the configuration the benchmark measures: as in
    ``run.pinned_environment``, no ``REPRO_*`` knob (kernel, backend,
    batch mode, cache) reaches the sessions."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)
