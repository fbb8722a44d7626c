#!/usr/bin/env python
"""Tolerance gate: diff a fresh bench document against a baseline.

Usage::

    python scripts/bench_gate.py NEW.json BASELINE.json \
        [--max-regression 0.4]

Rows are matched by ``(engine, config)`` and compared on
``packets_per_s``.  A row is a violation when it runs slower than
``baseline * (1 - max_regression)`` — the default tolerates a 40% drop:
still generous (CI machines differ), but tight enough that a hot-loop
regression of 2x cannot hide behind machine drift.  Rows present on
only one side are reported but never fail the gate, so the matrix is
allowed to grow; rows whose packet budgets differ are reported but not
gated either (throughput is only comparable at equal budgets, so a
reduced-budget CI run must not be held to the committed full-budget
rate).

Exit status: 0 when every common row passes, 1 on any violation, 2 on
unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_rows(path: Path):
    document = json.loads(path.read_text(encoding="utf-8"))
    if document.get("schema") != "repro-bench/1":
        raise ValueError(f"not a repro-bench/1 document: {path}")
    return {
        (row["engine"], row["config"]): (
            float(row["packets_per_s"]),
            int(row.get("packets", 0)),
        )
        for row in document["results"]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("new", help="freshly produced bench JSON")
    parser.add_argument("baseline", help="committed baseline bench JSON")
    parser.add_argument(
        "--max-regression", type=float, default=0.4, metavar="FRACTION",
        help="largest tolerated packets/s drop as a 0..1 fraction "
             "(default: 0.4)",
    )
    args = parser.parse_args(argv)

    try:
        new_rows = load_rows(Path(args.new))
        base_rows = load_rows(Path(args.baseline))
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"bench-gate: cannot read inputs: {error}", file=sys.stderr)
        return 2

    violations = []
    for key in sorted(new_rows):
        engine, config = key
        new_rate, new_packets = new_rows[key]
        if key not in base_rows:
            print(f"  {engine}/{config}: (new row, not gated)")
            continue
        base_rate, base_packets = base_rows[key]
        if new_packets != base_packets:
            print(
                f"  {engine}/{config}: (budget changed, "
                f"{base_packets} -> {new_packets} pkts, not gated)"
            )
            continue
        floor = base_rate * (1.0 - args.max_regression)
        change = (new_rate - base_rate) / base_rate * 100.0 if base_rate else 0.0
        verdict = "ok" if new_rate >= floor else "REGRESSION"
        print(
            f"  {engine}/{config}: {new_rate:.0f} vs {base_rate:.0f} pkts/s "
            f"({change:+.1f}%) -> {verdict}"
        )
        if new_rate < floor:
            violations.append(key)
    for key in sorted(set(base_rows) - set(new_rows)):
        print(f"  {key[0]}/{key[1]}: (gone from new document, not gated)")

    if violations:
        names = ", ".join(f"{e}/{c}" for e, c in violations)
        print(
            f"bench-gate: {len(violations)} row(s) regressed beyond "
            f"{args.max_regression * 100:.0f}%: {names}",
            file=sys.stderr,
        )
        return 1
    print("bench-gate: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
