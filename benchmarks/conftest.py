"""Shared helpers for the benchmark harness.

``bench_paper_claims.py`` runs every manifest entry and checks its
paper claim; the other ``bench_*.py`` files are ablations and
extensions, each printing its table.  Scale is controlled by the
``REPRO_BENCH_SCALE`` environment variable (``smoke`` / ``default`` /
``full``; the claims are stated at ``default``); see
``repro.analysis.scale``.

Run with::

    REPRO_BENCH_SCALE=default PYTHONPATH=src python -m pytest benchmarks -q
"""

import pytest

from repro.analysis.scale import current_scale


@pytest.fixture(scope="session")
def scale():
    """The session's run scale (env-selected)."""
    return current_scale()


@pytest.fixture
def run_experiment(capsys):
    """Run one experiment driver and print its rendered table."""

    def runner(driver, *args, **kwargs):
        table = driver(*args, **kwargs)
        with capsys.disabled():
            print()
            print(table.render())
        return table

    return runner
