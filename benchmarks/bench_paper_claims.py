"""Every manifest entry's claim, checked at the current scale.

Each entry of :data:`repro.analysis.manifest.MANIFEST` runs its driver,
prints the table and the rendered verdict, and fails if any clause of
its check is not reproduced.  The claims are stated at the ``default``
preset (1,024 tenants); a smaller preset lacks their rows and fails.
All entries run in one process, so they share the trace cache.
"""

import pytest

from repro.analysis.manifest import MANIFEST, NOT_REPRODUCED, render_verdict, worst


@pytest.mark.parametrize("entry", MANIFEST, ids=lambda entry: entry.key)
def test_paper_claim(entry, run_experiment, scale, capsys):
    table = run_experiment(entry.driver, **entry.kwargs_for(scale))
    clauses = entry.check(table)
    with capsys.disabled():
        print(f"Verdict: {render_verdict(clauses)}")
    if worst(clauses) == NOT_REPRODUCED:
        failed = [clause.text for clause in clauses if clause.mark == NOT_REPRODUCED]
        pytest.fail("\n".join(failed) or "no clause was checked", pytrace=False)
