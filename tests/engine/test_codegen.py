"""Unit tests for bag lowering (paper §3.3): plan -> block kernel."""

import numpy as np
import pytest

from repro import Database
from repro.engine.codegen import InputSpec, generate_bag_plan
from repro.engine.fused import FusedBagKernel
from repro.engine.semiring import COUNT, Semiring
from repro.errors import PlanError
from tests.conftest import (bag_inputs, clique_atoms,
                            random_undirected_edges)

TRIANGLE = "T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>."
FOUR_CLIQUE = ("K(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,u),"
               "Edge(y,u),Edge(z,u); w=<<COUNT(*)>>.")


def pruned_db(edges, **overrides):
    db = Database(**overrides)
    db.load_graph("Edge", edges, prune=True)
    return db


def clique_kernel(db, order):
    """Kernel + tries for the clique count over ``order``."""
    specs, tries, _ = bag_inputs(db, clique_atoms(order))
    return generate_bag_plan(order, 0, specs, COUNT), tries


class TestLoweredKernel:
    def test_levels_mirror_example_3_2(self):
        """The kernel's levels follow the paper's loop nest for the
        triangle: x from R.x ∩ T.x, y from R[x].y ∩ S.y, z from
        S[y].z ∩ T[x].z — roots probe keys, children expand/probe."""
        db = pruned_db(random_undirected_edges(20, 60, 1))
        kernel, _ = clique_kernel(db, ("x", "y", "z"))
        assert isinstance(kernel, FusedBagKernel)
        # specs in pair order: R=(x,y), T=(x,z), S=(y,z)
        shape = [[(part.index, part.pos) for part in level]
                 for level in kernel.levels]
        assert shape == [[(0, 0), (1, 0)],      # x: R.x ∩ T.x
                         [(0, 1), (2, 0)],      # y: R[x].y ∩ S.y
                         [(1, 1), (2, 1)]]      # z: T[x].z ∩ S[y].z
        assert kernel.int_fold                  # leaf counts, no z rows

    def test_kernel_matches_interpreter(self):
        for seed in range(3):
            edges = random_undirected_edges(30, 120, seed)
            db = pruned_db(edges, execution_mode="interpreted")
            kernel, tries = clique_kernel(db, ("x", "y", "z"))
            expected = db.query(TRIANGLE).scalar
            assert kernel(tries, db.config).scalar == expected

    def test_four_clique_kernel(self):
        db = pruned_db(random_undirected_edges(25, 140, 9),
                       execution_mode="interpreted")
        kernel, tries = clique_kernel(db, ("x", "y", "z", "u"))
        expected = db.query(FOUR_CLIQUE).scalar
        assert kernel(tries, db.config).scalar == expected

    def test_charges_same_counter(self):
        db = pruned_db(random_undirected_edges(20, 60, 2))
        kernel, tries = clique_kernel(db, ("x", "y", "z"))
        before = db.counter.total_ops
        kernel(tries, db.config)
        assert db.counter.total_ops > before


class TestScope:
    @pytest.mark.parametrize("arity", [3, 4])
    def test_k_ary_input_has_a_kernel(self, arity):
        """A k-ary input is a chain of flat levels: its kernel counts,
        and lists, what the interpreter does."""
        from repro.engine.generic_join import BagInput, evaluate_bag
        from repro.storage import Relation, Trie
        rng = np.random.RandomState(arity)
        order = ("x", "y", "z", "u")[:arity]
        trie = Trie(Relation("R", rng.randint(0, 4, size=(40, arity))
                             .astype(np.uint32)))
        specs = [InputSpec("R", order)]
        config = Database(execution_mode="compiled").config
        for out in (0, 1, arity):
            kernel = generate_bag_plan(order, out, specs, COUNT)
            got = kernel([trie], config)
            expected = evaluate_bag(order, out, [BagInput(trie, order)],
                                    COUNT, config)
            assert got.scalar == expected.scalar
            assert np.array_equal(got.data, expected.data)
            assert np.array_equal(got.annotations, expected.annotations)

    def test_unknown_semiring_is_a_plan_error(self):
        product = Semiring("PRODUCT", 1.0, lambda a, b: a * b, np.prod)
        specs = [InputSpec("E", ("x", "y"))]
        with pytest.raises(PlanError):
            generate_bag_plan(("x", "y"), 0, specs, product)

    def test_zero_levels_rejected(self):
        with pytest.raises(PlanError):
            generate_bag_plan((), 0, [], COUNT)

    def test_uncovered_attribute_rejected(self):
        with pytest.raises(PlanError):
            generate_bag_plan(("x", "q"), 0, [InputSpec("E", ("x",))],
                              COUNT)
