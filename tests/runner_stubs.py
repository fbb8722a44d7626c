"""Picklable stub job functions for the scheduler tests.

These live in an importable module (not the test file's local scope is
fine too under fork, but keeping them here makes them picklable by
reference under every multiprocessing start method).
"""

import os
import time


def ok_job(spec):
    """Deterministic success payload derived from the spec."""
    return {
        "result": {"seed": spec.seed, "benchmark": spec.benchmark},
        "duration_s": 0.001,
        "pid": os.getpid(),
    }


def failing_job(spec):
    """Always raises, carrying the seed so the error is attributable."""
    raise ValueError(f"kaboom-{spec.seed}")


def hang_job(spec):
    """Hangs for the 'hang' benchmark (``hang_s`` in the spec's config,
    default 120 s), succeeds otherwise."""
    if spec.benchmark == "hang":
        time.sleep(spec.config.get("hang_s", 120))
    return ok_job(spec)


def sigterm_trapping_hang_job(spec):
    """:func:`hang_job` behind the supervised worker's signal handlers.

    SIGTERM only sets the checkpoint module's interrupt flag, which a
    supervised job reads at its next packet barrier; this job has none,
    so a terminated worker keeps sleeping.
    """
    from repro.sim import checkpoint

    checkpoint.install_signal_handlers()
    return hang_job(spec)


def fail_once_job(spec):
    """Fails the first attempt, succeeds after (marker file = shared state).

    The marker path is smuggled through the spec's free-form config dict.
    """
    marker = spec.config["marker"]
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        raise RuntimeError("first attempt fails")
    return ok_job(spec)
