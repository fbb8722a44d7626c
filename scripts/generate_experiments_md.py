#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Runs every experiment in :data:`repro.analysis.manifest.MANIFEST` at the
scale selected by REPRO_BENCH_SCALE (default: ``default``) and writes the
measured tables, each followed by the paper's reported result and the
verdict its manifest check renders.  The output is the whole file.

Run:  python scripts/generate_experiments_md.py [output-path]
"""

import sys
import time
from pathlib import Path

from repro.analysis.manifest import MANIFEST, PIN_TOLERANCE, render_verdict
from repro.analysis.scale import current_scale

HEADER = """# EXPERIMENTS — paper vs. measured

Generated by ``scripts/generate_experiments_md.py`` at scale ``{scale}``
({when}).  Every table and figure of the paper's evaluation is regenerated
by a driver in ``repro.analysis.experiments``; this file records the
measured rows next to the paper's reported result.

**Reading guide.**  Traces are shape-preserving scaled versions of the
paper's 70 M-request traces (see DESIGN.md, "Substitutions"), so absolute
Gb/s are not comparable; the reproduction targets are the *shapes*: who
wins, by roughly what factor, and where crossovers fall.  Bandwidth is
measured after a warm-up window (steady state).  Each **Shape verdict** is
written by the entry's check in ``repro.analysis.manifest`` from the table
above it: every line is marked reproduced, pinned deviation (a known
deviation from the paper, held within ±{tolerance:.0%} of the value the
``default`` preset measures) or not reproduced, and the verdict is its
worst line.  ``benchmarks/bench_paper_claims.py`` runs the same checks.
docs/MODEL.md §3 gives each deviation's cause.

"""


def main():
    output = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("EXPERIMENTS.md")
    scale = current_scale()
    when = time.strftime("%Y-%m-%d %H:%M")
    sections = [HEADER.format(scale=scale.name, when=when, tolerance=PIN_TOLERANCE)]
    for entry in MANIFEST:
        started = time.time()
        table = entry.driver(**entry.kwargs_for(scale))
        print(f"{table.experiment_id:12s} done in {time.time() - started:6.1f}s")
        sections.append(table.to_markdown())
        sections.append(f"\n**Paper reports:** {entry.paper_claim}\n")
        sections.append(f"**Shape verdict:** {render_verdict(entry.check(table))}\n")
    output.write_text("\n".join(sections), encoding="utf-8")
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
