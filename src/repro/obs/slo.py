"""Declarative SLO rules evaluated against the live metrics registry.

HyperTRIO's claims are latency-tail claims, so the service watches the
tails it serves: a JSON rule file declares objectives over the live
registry — model-latency percentiles, per-cause drop rates, and PTB
high-watermark dwell time — and :class:`SloWatcher` evaluates them
against periodic samples, emitting ``slo.breach`` / ``slo.recover``
events through the obs tracer on every state transition.  The server can
optionally let a breach drive admission backpressure
(``repro-sim serve --slo-rules rules.json --slo-backpressure``): while
any rule is breached, translates are shed with the typed
``backpressure`` error, mirroring the paper's PTB-overflow drop at the
service layer.

Rule file format (schema ``repro-slo/1``)::

    {
      "schema": "repro-slo/1",
      "rules": [
        {"name": "tail", "kind": "latency_quantile",
         "quantile": 99, "max_ns": 4000},
        {"name": "drops", "kind": "drop_rate",
         "cause": "ptb_overflow", "max_rate": 0.05},
        {"name": "ptb-dwell", "kind": "ptb_dwell",
         "watermark": 24, "max_dwell_s": 2.0},
        {"name": "churn", "kind": "conn_churn",
         "max_per_s": 5.0}
      ]
    }

Evaluation is hysteresis-free by design (the rules are already
thresholds on aggregates, which move slowly); the *dwell* rule carries
its own temporal filter: it breaches only after occupancy has stayed at
or above ``watermark`` continuously for ``max_dwell_s`` wall seconds.

The *churn* rule watches wire health rather than model health: the
sample carries the server's cumulative connections-opened counter, and
the rule breaches when the opening **rate** between two evaluations
exceeds ``max_per_s`` — a reconnect storm (or an eviction loop) shows
up here even when every translation still succeeds.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.obs import events as ev

#: Schema tag expected at the top of every rule file.
SLO_SCHEMA = "repro-slo/1"

KIND_LATENCY = "latency_quantile"
KIND_DROP_RATE = "drop_rate"
KIND_PTB_DWELL = "ptb_dwell"
KIND_CONN_CHURN = "conn_churn"
ALL_KINDS = (KIND_LATENCY, KIND_DROP_RATE, KIND_PTB_DWELL, KIND_CONN_CHURN)


class SloFormatError(ValueError):
    """A rule file that could not be parsed into valid rules."""


@dataclass(frozen=True)
class SloRule:
    """One declarative objective.

    ``threshold`` is the rule's limit in its kind's unit: nanoseconds
    for ``latency_quantile`` (``max_ns``), a 0..1 fraction for
    ``drop_rate`` (``max_rate``), wall seconds for ``ptb_dwell``
    (``max_dwell_s``), connections opened per wall second for
    ``conn_churn`` (``max_per_s``).
    """

    name: str
    kind: str
    threshold: float
    #: ``latency_quantile``: which percentile of the model latency.
    quantile: float = 99.0
    #: ``drop_rate``: which drop cause (``"any"`` sums all causes).
    cause: str = "any"
    #: ``ptb_dwell``: the occupancy (entries) that starts the dwell timer.
    watermark: int = 0


@dataclass
class SloSample:
    """One evaluation input, assembled by the caller from live state.

    ``latency_percentile`` maps a quantile (0..100) to nanoseconds;
    ``drop_rate`` maps a cause name (or ``"any"``) to a 0..1 fraction;
    ``ptb_occupancy`` is the maximum modeled PTB occupancy across
    devices; ``model_ns`` timestamps emitted events on the simulation
    clock.
    """

    latency_percentile: Callable[[float], float]
    drop_rate: Callable[[str], float]
    ptb_occupancy: int = 0
    model_ns: float = 0.0
    #: Cumulative connections-opened count (``conn_churn`` rules derive
    #: the per-second rate between evaluations from it).
    conn_churn: float = 0.0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SloFormatError(message)


def rules_from_dict(document: Dict[str, Any]) -> List[SloRule]:
    """Parse and strictly validate a rule document."""
    _require(isinstance(document, dict), "rule file must be a JSON object")
    schema = document.get("schema")
    _require(
        schema == SLO_SCHEMA,
        f"unsupported SLO schema {schema!r} (expected {SLO_SCHEMA!r})",
    )
    raw_rules = document.get("rules")
    _require(
        isinstance(raw_rules, list) and raw_rules,
        "'rules' must be a non-empty list",
    )
    rules: List[SloRule] = []
    seen = set()
    for index, raw in enumerate(raw_rules):
        _require(isinstance(raw, dict), f"rule #{index} must be an object")
        name = raw.get("name")
        _require(
            isinstance(name, str) and name, f"rule #{index} needs a 'name'"
        )
        _require(name not in seen, f"duplicate rule name {name!r}")
        seen.add(name)
        kind = raw.get("kind")
        _require(
            kind in ALL_KINDS,
            f"rule {name!r}: unknown kind {kind!r} (one of {ALL_KINDS})",
        )
        if kind == KIND_LATENCY:
            quantile = raw.get("quantile", 99)
            _require(
                isinstance(quantile, (int, float)) and 0 < quantile <= 100,
                f"rule {name!r}: 'quantile' must be in (0, 100]",
            )
            max_ns = raw.get("max_ns")
            _require(
                isinstance(max_ns, (int, float)) and max_ns >= 0,
                f"rule {name!r}: 'max_ns' must be a non-negative number",
            )
            rules.append(
                SloRule(
                    name=name, kind=kind,
                    threshold=float(max_ns), quantile=float(quantile),
                )
            )
        elif kind == KIND_DROP_RATE:
            cause = raw.get("cause", "any")
            _require(
                isinstance(cause, str) and cause,
                f"rule {name!r}: 'cause' must be a non-empty string",
            )
            max_rate = raw.get("max_rate")
            _require(
                isinstance(max_rate, (int, float)) and 0 <= max_rate <= 1,
                f"rule {name!r}: 'max_rate' must be a fraction in [0, 1]",
            )
            rules.append(
                SloRule(
                    name=name, kind=kind,
                    threshold=float(max_rate), cause=cause,
                )
            )
        elif kind == KIND_PTB_DWELL:
            watermark = raw.get("watermark")
            _require(
                isinstance(watermark, int) and watermark >= 1,
                f"rule {name!r}: 'watermark' must be a positive integer",
            )
            max_dwell = raw.get("max_dwell_s")
            _require(
                isinstance(max_dwell, (int, float)) and max_dwell >= 0,
                f"rule {name!r}: 'max_dwell_s' must be non-negative",
            )
            rules.append(
                SloRule(
                    name=name, kind=kind,
                    threshold=float(max_dwell), watermark=watermark,
                )
            )
        else:  # KIND_CONN_CHURN
            max_per_s = raw.get("max_per_s")
            _require(
                isinstance(max_per_s, (int, float)) and max_per_s >= 0,
                f"rule {name!r}: 'max_per_s' must be non-negative",
            )
            rules.append(
                SloRule(name=name, kind=kind, threshold=float(max_per_s))
            )
    return rules


def load_slo_rules(path: Union[str, Path]) -> List[SloRule]:
    """Load and validate a rule file; raises :class:`SloFormatError`."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as error:
        raise SloFormatError(f"cannot read {path}: {error}") from None
    except json.JSONDecodeError as error:
        raise SloFormatError(f"{path} is not valid JSON: {error}") from None
    return rules_from_dict(document)


class SloWatcher:
    """Evaluates rules against samples; tracks breach state per rule.

    ``tracer`` receives an ``slo.breach`` / ``slo.recover`` event on
    every state *transition* (steady states are silent, so a breached
    rule does not spam one event per evaluation).  ``clock`` feeds the
    dwell timers and is injectable for tests.
    """

    def __init__(
        self,
        rules: List[SloRule],
        tracer=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.rules = list(rules)
        self._tracer = tracer
        self._clock = clock
        self.breached: Dict[str, bool] = {rule.name: False for rule in self.rules}
        #: Wall time at which occupancy first held the watermark, per rule.
        self._dwell_since: Dict[str, Optional[float]] = {}
        #: Previous ``(wall_time, cumulative_count)`` sample per churn
        #: rule — rates are computed between consecutive evaluations.
        self._churn_prev: Dict[str, Tuple[float, float]] = {}
        self.transitions: int = 0

    # ------------------------------------------------------------------
    @property
    def any_breached(self) -> bool:
        return any(self.breached.values())

    def _measure(self, rule: SloRule, sample: SloSample, now: float) -> float:
        if rule.kind == KIND_LATENCY:
            return sample.latency_percentile(rule.quantile)
        if rule.kind == KIND_DROP_RATE:
            return sample.drop_rate(rule.cause)
        if rule.kind == KIND_CONN_CHURN:
            # Connections opened per second since the previous
            # evaluation of this rule (0 on the first sample).
            prev = self._churn_prev.get(rule.name)
            self._churn_prev[rule.name] = (now, sample.conn_churn)
            if prev is None:
                return 0.0
            elapsed = now - prev[0]
            if elapsed <= 0:
                return 0.0
            return (sample.conn_churn - prev[1]) / elapsed
        # KIND_PTB_DWELL: measured value is the current dwell in seconds.
        if sample.ptb_occupancy >= rule.watermark:
            since = self._dwell_since.get(rule.name)
            if since is None:
                self._dwell_since[rule.name] = since = now
            return now - since
        self._dwell_since[rule.name] = None
        return 0.0

    def evaluate(self, sample: SloSample) -> List[Dict[str, Any]]:
        """Evaluate every rule; returns the state *transitions*.

        Each transition is ``{"rule", "kind", "state", "value",
        "threshold"}`` with ``state`` ``"breach"`` or ``"recover"``.
        """
        now = self._clock()
        transitions: List[Dict[str, Any]] = []
        for rule in self.rules:
            value = self._measure(rule, sample, now)
            breached = value > rule.threshold
            if breached == self.breached[rule.name]:
                continue
            self.breached[rule.name] = breached
            self.transitions += 1
            state = "breach" if breached else "recover"
            transitions.append(
                {
                    "rule": rule.name,
                    "kind": rule.kind,
                    "state": state,
                    "value": value,
                    "threshold": rule.threshold,
                }
            )
            if self._tracer is not None:
                # ``rule_kind``, not ``kind``: the event's own kind is the
                # positional first argument of ``emit``.
                self._tracer.emit(
                    ev.SLO_BREACH if breached else ev.SLO_RECOVER,
                    sample.model_ns,
                    rule=rule.name,
                    rule_kind=rule.kind,
                    value=value,
                    threshold=rule.threshold,
                )
        return transitions

    def snapshot(self) -> Dict[str, Any]:
        """Copy-on-read state for the ``stats`` endpoint."""
        return {
            "rules": [
                {
                    "name": rule.name,
                    "kind": rule.kind,
                    "threshold": rule.threshold,
                    "breached": self.breached[rule.name],
                }
                for rule in self.rules
            ],
            "any_breached": self.any_breached,
            "transitions": self.transitions,
        }
