"""Adaptive self-tuning: machine/dataset calibration and tuned profiles.

The engine's dispatch constants — the galloping crossover
(:data:`repro.sets.cost.GALLOPING_CROSSOVER`), the uint-vs-bitset layout
density threshold, the fused block budget — are the paper's hard-coded
guesses for 2016 hardware.  This package closes
the observe→adapt loop the ROADMAP names:

* :class:`TuningProfile` (:mod:`repro.tune.profile`) — a versioned,
  JSON-serializable bundle of calibrated constants that every dispatch
  site reads through :class:`repro.engine.config.EngineConfig`
  accessors, replacing import-time snapshots with one source of truth.
* :func:`calibrate` (:mod:`repro.tune.calibrate`) — targeted
  microbenchmarks fitting the real crossover points on the current
  machine (and optionally on sampled sets from a loaded dataset).

Activation is explicit: ``Database(adaptive=True)`` / ``--adaptive``
turns on both the tuned constants (when a profile is attached) and
mispredict-driven re-planning in the executor.  With no profile and
``adaptive=False`` — the default — behavior is bit-identical to the
untuned engine.
"""

from .profile import PROFILE_VERSION, TuningProfile, load_profile

#: The calibration microbenchmarks; the engine only ever reads profiles.
_DEFERRED = {"calibrate": ".calibrate"}

__all__ = ["PROFILE_VERSION", "TuningProfile", "calibrate", "load_profile"]


def __getattr__(name):
    # PEP 562: the ``_DEFERRED`` exports load with their module on first
    # use, so importing this package costs only what reading a profile
    # needs.
    if name not in _DEFERRED:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    from importlib import import_module
    value = getattr(import_module(_DEFERRED[name], __name__), name)
    globals()[name] = value
    return value
