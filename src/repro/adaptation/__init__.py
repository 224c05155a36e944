"""Online adaptation: streaming drift detection and live model refresh.

This package closes the loop the rest of the stack leaves open.  Serving
(:mod:`repro.serving`) scores live telemetry against a *frozen* model;
analytics (:mod:`repro.analytics`) watches those scores; but when the data
distribution genuinely moves, somebody has to retrain and redeploy.  Here
that somebody is code:

* :mod:`repro.adaptation.detectors` — incremental drift rules (score-quantile
  shift, imputation-error shift, PSI and KS window comparators) against a
  frozen training-tail :class:`DriftReference`, composed through the same
  policy grammar the alerting engine uses and edge-triggered into
  :class:`DriftEvent` streams via :class:`DriftMonitor`.
* :mod:`repro.adaptation.controller` — :class:`AdaptationController`, which
  on a confirmed drift edge snapshots the tenant's raw ring buffer,
  fine-tunes a checkpoint clone, evaluates it on a held-out tail under
  common random numbers, publishes it to the model registry and hot-swaps
  it under the live service — rolling back bit-exactly on regression.
* :mod:`repro.adaptation.scenario` — :func:`run_drift_scenario`, the
  end-to-end frozen-vs-adapted comparison used by ``repro adapt`` and its
  tier-1 tests.

See ``docs/architecture.md`` for where this sits in the dataflow and
``docs/determinism.md`` for the rollback bit-identity contract.
"""

from .controller import (
    AdaptationConfig,
    AdaptationController,
    AdaptationRecord,
    training_tail_reference,
)
from .detectors import (
    DRIFT_POLICY_PRESETS,
    DriftEvent,
    DriftMonitor,
    DriftReference,
    DriftRule,
    ErrorShiftRule,
    KSRule,
    PSIRule,
    QuantileShiftRule,
    drift_statistics,
    parse_drift_policy,
)
from .scenario import DriftScenarioResult, run_drift_scenario

__all__ = [
    "DriftReference",
    "DriftEvent",
    "DriftRule",
    "QuantileShiftRule",
    "ErrorShiftRule",
    "PSIRule",
    "KSRule",
    "DriftMonitor",
    "DRIFT_POLICY_PRESETS",
    "parse_drift_policy",
    "drift_statistics",
    "AdaptationConfig",
    "AdaptationRecord",
    "AdaptationController",
    "training_tail_reference",
    "DriftScenarioResult",
    "run_drift_scenario",
]
