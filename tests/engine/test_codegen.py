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
    def test_arity_three_input_has_no_kernel(self):
        specs = [InputSpec("R", ("x", "y", "z"))]
        assert generate_bag_plan(("x", "y", "z"), 0, specs, COUNT) is None

    def test_unknown_semiring_has_no_kernel(self):
        product = Semiring("PRODUCT", 1.0, lambda a, b: a * b, np.prod)
        specs = [InputSpec("E", ("x", "y"))]
        assert generate_bag_plan(("x", "y"), 0, specs, product) is None

    def test_zero_levels_rejected(self):
        with pytest.raises(PlanError):
            generate_bag_plan((), 0, [], COUNT)

    def test_uncovered_attribute_rejected(self):
        with pytest.raises(PlanError):
            generate_bag_plan(("x", "q"), 0, [InputSpec("E", ("x",))],
                              COUNT)
