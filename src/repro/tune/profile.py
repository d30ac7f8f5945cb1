"""The versioned tuning profile read by every adaptive dispatch site.

This module must stay importable by :mod:`repro.engine.config` without
creating an import cycle, so it depends on nothing but the standard
library — no numpy, no engine, no sets.  The calibration side
(:mod:`repro.tune.calibrate`) is where the heavy imports live.

A profile is a plain JSON file::

    {
      "version": 1,
      "source": "calibrated",
      "fingerprint": {"platform": "...", "python": "...", ...},
      "galloping_crossover": 8.0,
      "density_threshold": 256.0,
      "fused_block_rows": 16384,
      "fused_probe_crossover": 16.0
    }

Loading is deliberately forgiving: a missing file, unparseable JSON, a
version mismatch, or out-of-range values all yield ``None`` — callers
fall back to the hard-coded defaults, so a stale profile can never
crash or corrupt a query (the "profile absent or stale ⇒ behavior
identical to defaults" acceptance bar).
"""

import json
import os
import platform
from dataclasses import dataclass, field

#: Bump when the profile schema or the semantics of a field change.
#: Profiles with any other version are ignored (clean fallback).
PROFILE_VERSION = 1

#: Defaults mirroring the engine's hard-coded constants — this module
#: cannot import them (layering).  ``DEFAULT_FUSED_BLOCK_ROWS`` is the
#: definition: ``repro.engine.fused.BLOCK_ROWS`` imports it.
DEFAULT_GALLOPING_CROSSOVER = 32.0
DEFAULT_DENSITY_THRESHOLD = 256.0      # sets.cost.SIMD_REGISTER_BITS
DEFAULT_FUSED_BLOCK_ROWS = 1 << 14    # see engine.fused.BLOCK_ROWS
DEFAULT_FUSED_PROBE_CROSSOVER = None   # None = engine.fused.PROBE_CROSSOVER

#: Sanity clamps applied on load: a corrupt or adversarial profile can
#: shift constants, never break correctness, but absurd values would
#: still hurt (e.g. fused_block_rows=1 would run one numpy call per row).
_BOUNDS = {
    "galloping_crossover": (1.0, 4096.0),
    "density_threshold": (1.0, 1 << 20),
    "fused_block_rows": (1 << 12, 1 << 28),
    "fused_probe_crossover": (1.0, 4096.0),
}


def machine_fingerprint():
    """Identify the machine a profile was calibrated on (informational:
    mismatches are reported, never rejected — ratios transfer better
    across hosts than absolute timings do)."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }


def _clamp(name, value):
    low, high = _BOUNDS[name]
    return min(max(value, low), high)


@dataclass
class TuningProfile:
    """Calibrated dispatch constants, one source of truth for adaptive
    execution.

    ``None`` for any field means "use the engine default" — the config
    accessors skip it.  ``fused_probe_crossover`` defaults to ``None``:
    until a calibration has priced the skew sweep on this machine the
    kernel's built-in crossover applies.
    """

    galloping_crossover: float = DEFAULT_GALLOPING_CROSSOVER
    density_threshold: float = DEFAULT_DENSITY_THRESHOLD
    fused_block_rows: int = DEFAULT_FUSED_BLOCK_ROWS
    fused_probe_crossover: float = DEFAULT_FUSED_PROBE_CROSSOVER
    source: str = "default"
    fingerprint: dict = field(default_factory=machine_fingerprint)
    version: int = PROFILE_VERSION

    def signature(self):
        """Hashable identity for plan-cache keying: two configs with
        different tuned constants must never share compiled plans."""
        return (self.version,
                self.galloping_crossover,
                self.density_threshold,
                self.fused_block_rows,
                self.fused_probe_crossover)

    def to_dict(self):
        return {
            "version": self.version,
            "source": self.source,
            "fingerprint": dict(self.fingerprint),
            "galloping_crossover": self.galloping_crossover,
            "density_threshold": self.density_threshold,
            "fused_block_rows": self.fused_block_rows,
            "fused_probe_crossover": self.fused_probe_crossover,
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a profile from a dict, or ``None`` when the payload
        is not a usable version-``PROFILE_VERSION`` profile.  Keys this
        version does not read (e.g. a retired field) are ignored."""
        if not isinstance(data, dict):
            return None
        if data.get("version") != PROFILE_VERSION:
            return None
        try:
            kwargs = {}
            for name in ("galloping_crossover", "density_threshold",
                         "fused_probe_crossover"):
                value = data.get(name)
                kwargs[name] = (None if value is None
                                else _clamp(name, float(value)))
            value = data.get("fused_block_rows")
            kwargs["fused_block_rows"] = (
                None if value is None
                else int(_clamp("fused_block_rows", int(value))))
            return cls(source=str(data.get("source", "loaded")),
                       fingerprint=dict(data.get("fingerprint") or {}),
                       **kwargs)
        except (TypeError, ValueError):
            return None

    def save(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def describe(self):
        """One-line-per-field summary for the CLI."""
        lines = ["tuning profile (version %d, source=%s)"
                 % (self.version, self.source)]
        for name in ("galloping_crossover", "density_threshold",
                     "fused_block_rows", "fused_probe_crossover"):
            lines.append("  %-22s %s" % (name, getattr(self, name)))
        host = self.fingerprint or {}
        if host:
            lines.append("  calibrated on: %s (%s cpus)"
                         % (host.get("platform", "?"),
                            host.get("cpu_count", "?")))
        return "\n".join(lines)


def load_profile(path):
    """Load a profile from ``path``; ``None`` on *any* failure.

    Missing file, malformed JSON, wrong version, wrong types — all are
    treated as "no profile": the engine must keep running on defaults
    rather than fail a query because a tuning file went stale.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return TuningProfile.from_dict(data)
