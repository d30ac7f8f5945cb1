"""Tests for database save/load round trips."""

import numpy as np
import pytest

from repro import Database
from repro.storage.persistence import load_catalog, save_catalog


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "db.npz")


class TestRoundTrip:
    def test_graph_round_trip_preserves_queries(self, path):
        db = Database()
        db.load_graph("Edge", [("a", "b"), ("b", "c"), ("a", "c")],
                      prune=True)
        query = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
                 "w=<<COUNT(*)>>.")
        expected = db.query(query).scalar
        db.save(path)
        loaded = Database.load(path)
        assert loaded.query(query).scalar == expected

    def test_decoding_survives(self, path):
        db = Database()
        db.load_graph("Edge", [("x", "y"), ("y", "z")])
        db.save(path)
        loaded = Database.load(path)
        assert set(loaded.query("Q(a,b) :- Edge(a,b).").tuples()) == \
            set(db.query("Q(a,b) :- Edge(a,b).").tuples())

    def test_shared_dictionary_stays_shared(self, path):
        db = Database()
        db.load_graph("Edge", [(1, 2), (2, 3)])
        db.save(path)
        loaded = Database.load(path)
        dictionaries = loaded.relation("Edge").dictionaries
        assert dictionaries[0] is dictionaries[1]

    def test_annotations_and_scalars(self, path):
        db = Database()
        db.add_encoded("W", [[0, 1], [1, 2]], annotations=[2.5, 7.0])
        db.add_scalar("N", 42.0)
        db.save(path)
        loaded = Database.load(path)
        assert loaded.relation("W").annotations.tolist() == [2.5, 7.0]
        assert loaded.relation("N").scalar_value == 42.0
        # scalar must be usable in expressions again
        result = loaded.query("Q(x;v:float) :- W(x,y); v=N.")
        assert set(result.annotations.tolist()) == {42.0}

    def test_intensional_relations_included(self, path):
        db = Database()
        db.load_graph("Edge", [(0, 1), (1, 2)])
        db.query("Hop(x,y) :- Edge(x,z),Edge(z,y).")
        db.save(path)
        loaded = Database.load(path)
        assert loaded.relation("Hop").cardinality == \
            db.relation("Hop").cardinality

    def test_load_applies_config_kwargs(self, path):
        db = Database()
        db.load_graph("Edge", [(0, 1)])
        db.save(path)
        loaded = Database.load(path, layout_level="uint_only")
        assert loaded.config.ablation.layout_level == "uint_only"

    def test_version_checked(self, path, tmp_path):
        import json
        db = Database()
        db.load_graph("Edge", [(0, 1)])
        db.save(path)
        # Corrupt the manifest version.
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        manifest = json.loads(str(arrays["manifest"]))
        manifest["version"] = 999
        arrays["manifest"] = np.asarray(json.dumps(manifest))
        np.savez(path, **arrays)
        from repro.errors import SchemaError
        with pytest.raises(SchemaError):
            Database.load(path)

    def test_file_with_a_tuning_record_still_loads(self, path):
        """Files saved while the engine had a self-tuner carry a
        ``tuning`` record in their manifest; it is ignored."""
        import json
        db = Database()
        db.load_graph("Edge", [(0, 1), (1, 2), (0, 2)], prune=True)
        query = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
                 "w=<<COUNT(*)>>.")
        expected = db.query(query).scalar
        db.save(path)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        manifest = json.loads(str(arrays["manifest"]))
        assert "tuning" not in manifest
        manifest["tuning"] = {
            "version": 1, "source": "machine", "fingerprint": {},
            "galloping_crossover": 5.5, "density_threshold": 64.0,
            "fused_block_rows": 4096, "fused_probe_crossover": 1.5}
        arrays["manifest"] = np.asarray(json.dumps(manifest))
        np.savez(path, **arrays)
        loaded = Database.load(path)
        assert loaded.query(query).scalar == expected

    def test_raw_catalog_functions(self, path):
        db = Database()
        db.load_graph("Edge", [(0, 1)])
        save_catalog(path, db.catalog)
        catalog = load_catalog(path)
        assert set(catalog) == {"Edge"}


class TestPathSpelling:
    """``save`` writes ``<path>.npz`` when the path lacks the suffix;
    ``load`` takes the path either way it was spelled."""

    QUERY = "Q(a,b) :- Edge(a,b)."

    def saved(self, tmp_path):
        db = Database()
        db.load_graph("Edge", [("x", "y"), ("y", "z")])
        db.save(str(tmp_path / "db"))
        assert [p.name for p in tmp_path.iterdir()] == ["db.npz"]
        return set(db.query(self.QUERY).tuples())

    def test_load_with_the_path_given_to_save(self, tmp_path):
        expected = self.saved(tmp_path)
        loaded = Database.load(str(tmp_path / "db"))
        assert set(loaded.query(self.QUERY).tuples()) == expected

    def test_load_with_the_file_name_written(self, tmp_path):
        expected = self.saved(tmp_path)
        loaded = Database.load(tmp_path / "db.npz")
        assert set(loaded.query(self.QUERY).tuples()) == expected

    def test_a_missing_file_still_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Database.load(str(tmp_path / "absent"))
