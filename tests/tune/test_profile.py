"""TuningProfile round-trip, tolerant loading, and persistence.

The acceptance bar under test: a profile survives serialization
bit-for-bit, rides along with a saved database, and *any* failure to
load (missing, corrupt, stale version, absurd values) degrades to
``None`` — paper-default constants — never an error.
"""

import json

import numpy as np
import pytest

from repro import Database
from repro.tune.profile import (PROFILE_VERSION, TuningProfile,
                                load_profile)

EDGES = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 0)]


def sample_profile():
    return TuningProfile(galloping_crossover=5.5,
                         density_threshold=96.0,
                         fused_block_rows=1 << 20,
                         fused_probe_crossover=2.0,
                         source="calibrated")


class TestRoundTrip:
    def test_dict_round_trip_preserves_every_field(self):
        original = sample_profile()
        rebuilt = TuningProfile.from_dict(original.to_dict())
        assert rebuilt is not None
        assert rebuilt.to_dict() == original.to_dict()
        assert rebuilt.signature() == original.signature()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "profile.json"
        original = sample_profile()
        original.save(str(path))
        loaded = load_profile(str(path))
        assert loaded is not None
        assert loaded.signature() == original.signature()

    def test_none_fields_survive(self, tmp_path):
        original = TuningProfile(fused_probe_crossover=None)
        path = tmp_path / "profile.json"
        original.save(str(path))
        loaded = load_profile(str(path))
        assert loaded.fused_probe_crossover is None

    def test_signature_distinguishes_profiles(self):
        assert sample_profile().signature() \
            != TuningProfile().signature()


class TestTolerantLoading:
    def test_missing_file(self, tmp_path):
        assert load_profile(str(tmp_path / "absent.json")) is None

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert load_profile(str(path)) is None

    def test_stale_version(self, tmp_path):
        record = sample_profile().to_dict()
        record["version"] = PROFILE_VERSION + 1
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(record))
        assert load_profile(str(path)) is None

    def test_non_dict_payload(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        assert load_profile(str(path)) is None

    def test_retired_field_is_ignored(self, tmp_path):
        """A profile saved while ``parallel_threshold`` was a tuned
        constant still loads, with the same version and constants."""
        record = sample_profile().to_dict()
        record["parallel_threshold"] = 300
        path = tmp_path / "old.json"
        path.write_text(json.dumps(record))
        loaded = load_profile(str(path))
        assert loaded is not None
        assert loaded.signature() == sample_profile().signature()

    def test_wrong_types_rejected(self):
        record = sample_profile().to_dict()
        record["galloping_crossover"] = "fast"
        assert TuningProfile.from_dict(record) is None

    def test_absurd_values_clamped(self):
        record = sample_profile().to_dict()
        record["fused_block_rows"] = 1          # would split every block
        record["galloping_crossover"] = 1e12    # would never gallop
        loaded = TuningProfile.from_dict(record)
        assert loaded.fused_block_rows >= 1 << 12
        assert loaded.galloping_crossover <= 4096.0


class TestDatabasePersistence:
    def test_profile_rides_along_with_save(self, tmp_path):
        db = Database(adaptive=True)
        db.config.tuning = sample_profile()
        db.load_graph("Edge", EDGES)
        path = str(tmp_path / "db.npz")
        db.save(path)
        restored = Database.load(path)
        assert restored.tuning is not None
        assert restored.tuning.signature() \
            == sample_profile().signature()
        # The profile alone never flips the behavior switch.
        assert restored.config.adaptive is False

    def test_save_without_profile_loads_none(self, tmp_path):
        db = Database()
        db.load_graph("Edge", EDGES)
        path = str(tmp_path / "db.npz")
        db.save(path)
        assert Database.load(path).tuning is None

    def test_restored_profile_gives_identical_results(self, tmp_path):
        query = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
                 "w=<<COUNT(*)>>.")
        db = Database(adaptive=True)
        db.config.tuning = sample_profile()
        db.load_graph("Edge", EDGES)
        expected = db.query(query).scalar
        path = str(tmp_path / "db.npz")
        db.save(path)
        restored = Database.load(path, adaptive=True)
        assert restored.query(query).scalar == expected

    def test_pre_tuning_save_format_still_loads(self, tmp_path):
        # A database saved before tuning existed has no manifest entry;
        # load must treat that exactly like "no profile".
        db = Database()
        db.load_graph("Edge", EDGES)
        path = str(tmp_path / "db.npz")
        db.save(path)
        from repro.storage.persistence import load_tuning
        assert load_tuning(path) is None
