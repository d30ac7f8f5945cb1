"""Versioned plan guards and surgical cache invalidation under mutation.

The plan cache, bag memo, and trie cache all pin the catalog relations
they read as ``(name, relation, version)`` guards.  These tests are the
regression suite for the mutation refactor's invalidation contract:

* a compiled plan must not serve stale contents after an in-place
  ``Database.append``/``delete`` bumps a guard version: it *re-binds*
  (its tries patched from the journal, no GHD search) while every
  mutated atom's log2 cardinality band holds, and recompiles when a
  band moves or the relation is read through a guard atom;
* invalidation is *surgical* — mutating ``R`` leaves every cached plan
  and trie that never read ``R`` warm;
* the version-keyed trie cache patches stale tries by journal replay
  instead of rebuilding when the delta is small.
"""

from repro import Database

EDGES = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]
OTHER = [(0, 0), (1, 1), (5, 2)]

QR = "QR(;w:long) :- R(x,y),R(y,z); w=<<COUNT(*)>>."
QS = "QS(;w:long) :- S(x,y); w=<<COUNT(*)>>."


def compiled_db():
    db = Database(execution_mode="compiled")
    db.add_relation("R", EDGES)
    db.add_relation("S", OTHER)
    return db


def count_paths(edges):
    by_src = {}
    for x, y in edges:
        by_src.setdefault(x, []).append(y)
    return float(sum(len(by_src.get(y, ())) for _, y in edges))


class TestVersionedGuards:
    def test_stale_compiled_plan_rejected_after_mutation(self):
        """Satellite regression: in-place mutation must invalidate the
        compiled rule through its version guard — the relation object
        (identity) is unchanged, so the pre-refactor identity-only
        guard would have served the stale baked tries."""
        db = compiled_db()
        db.query(QR)
        (compiled,) = db._plan_cache._rules.values()
        relation = db.catalog["R"]
        assert compiled.valid(db.catalog)
        db.append("R", [(3, 0)])
        assert db.catalog["R"] is relation      # same object...
        assert not compiled.valid(db.catalog)   # ...stale plan anyway
        assert db.query(QR).scalar == count_paths(EDGES + [(3, 0)])

    def test_append_query_warm_delete_query_counters(self):
        """Satellite: append -> query (warm) -> delete -> query, with
        the expected plan-cache tier hits/misses in ``ExecStats``."""
        db = compiled_db()
        db.query(QR)
        assert db.last_stats.plan_cache_misses == 1

        db.query(QR)  # warm: full tier hit, no parse, no codegen
        assert db.last_stats.plan_cache_hits == 1
        assert db.last_stats.plan_cache_misses == 0
        assert db.last_stats.parses == 0
        assert db.last_stats.codegen_runs == 0

        db.append("R", [(3, 0), (3, 4)])  # 5 -> 7 rows: same band
        result = db.query(QR)
        assert result.scalar == count_paths(EDGES + [(3, 0), (3, 4)])
        assert_rebound(db)

        db.query(QR)  # warm again at the new version
        assert db.last_stats.plan_cache_hits == 1

        patches = db._trie_cache.patches
        db.delete("R", [(0, 2), (3, 4)])
        remaining = [e for e in EDGES + [(3, 0)] if e != (0, 2)]
        result = db.query(QR)
        assert result.scalar == count_paths(remaining)
        assert_rebound(db, patches)

    def test_invalidation_is_surgical_across_relations(self):
        """Mutating R must leave S-only plans (and tries) warm — the
        acceptance criterion's plan-cache-counter proof."""
        db = compiled_db()
        db.query(QR)
        db.query(QS)
        db.query(QS)
        assert db.last_stats.plan_cache_hits == 1

        db.append("R", [(4, 4)])
        db.query(QS)  # S never read R: still a plan-cache hit
        assert db.last_stats.plan_cache_hits == 1
        assert db.last_stats.plan_cache_misses == 0
        result = db.query(QR)  # R's own plan re-binds to the new R
        assert result.scalar == count_paths(EDGES + [(4, 4)])
        assert_rebound(db)

    def test_append_crossing_a_power_of_two_recompiles(self):
        """The GHD memo's reuse rule: a plan outlives a mutation only
        while every mutated atom stays in its log2 cardinality band."""
        db = compiled_db()
        db.query(QR)
        grown = [(3, 0), (3, 4), (4, 0)]  # 5 -> 8 rows: band 3 -> 4
        db.append("R", grown)
        result = db.query(QR)
        assert result.scalar == count_paths(EDGES + grown)
        assert db.last_stats.plan_cache_misses == 1
        assert db.last_stats.ghd_builds == 1

    def test_selected_atom_answers_freshly(self):
        """A selection atom re-cuts its slice from the mutated source."""
        db = compiled_db()
        text = "QSel(;w:long) :- R(1,y),R(y,z); w=<<COUNT(*)>>."
        assert db.query(text).scalar == 1.0  # 1 -> {2, 3}
        db.append("R", [(1, 0)])  # 1 -> {0, 2, 3}
        assert db.query(text).scalar == 3.0
        assert_rebound(db)
        patches = db._trie_cache.patches
        db.delete("R", [(1, 2)])  # 1 -> {0, 3}
        assert db.query(text).scalar == 2.0
        assert_rebound(db, patches)

    def test_guard_atom_recompiles(self):
        """Whether a guard atom is empty is decided at compile time, so
        a mutation of a relation read through one recompiles."""
        db = compiled_db()
        text = "QG(;w:long) :- R(x,y),S(5,2); w=<<COUNT(*)>>."
        assert db.query(text).scalar == float(len(EDGES))
        db.delete("S", [(5, 2)])
        assert db.query(text).scalar == 0.0
        assert db.last_stats.plan_cache_misses == 1
        db.append("S", [(5, 2)])
        assert db.query(text).scalar == float(len(EDGES))
        assert db.last_stats.plan_cache_misses == 1


def assert_rebound(db, patches=0):
    """The last query re-bound its cached plan across a mutation: a
    plan-cache hit with no GHD search, its tries patched."""
    assert db.last_stats.plan_cache_hits == 1
    assert db.last_stats.plan_cache_misses == 0
    assert db.last_stats.ghd_builds == 0
    assert db._trie_cache.patches > patches


class TestVersionKeyedTrieCache:
    def test_small_append_patches_stale_trie(self):
        db = Database()
        db.add_relation("R", [(c, c + 1) for c in range(40)])
        db.query(QR)
        assert db._trie_cache.patches == 0
        db.append("R", [(99, 0)])
        db.query(QR)
        assert db._trie_cache.patches >= 1
        assert db.query(QR).scalar == count_paths(
            [(c, c + 1) for c in range(40)] + [(99, 0)])

    def test_large_append_rebuilds_instead_of_patching(self):
        db = Database()
        db.add_relation("R", [(0, 1), (1, 2)])
        db.query(QR)
        # 30 new rows on a 2-row base: far past PATCH_RATIO, and the
        # merge threshold trims the journal anyway -> full rebuild.
        db.append("R", [(c + 10, c) for c in range(30)])
        db.query(QR)
        assert db._trie_cache.patches == 0

    def test_stale_version_entry_retired_not_duplicated(self):
        db = Database()
        db.add_relation("R", [(c, c + 1) for c in range(40)])
        db.query(QR)
        entries_before = len(db._trie_cache._tries)
        db.append("R", [(99, 0)])
        db.query(QR)
        assert len(db._trie_cache._tries) == entries_before
        versions = {key[1] for key in db._trie_cache._tries
                    if key[0] == getattr(db.catalog["R"], "_trie_uid",
                                         None)}
        assert versions == {db.catalog["R"].version}
