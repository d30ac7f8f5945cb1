"""k-ary inputs on the block kernels, bit for bit against the interpreter.

A k-ary trie's flat view is a chain of CSR levels, level ``pos`` keyed
by the rows of level ``pos - 1``
(:class:`repro.storage.trie.FlatTrieView`), and the kernel expands or
probes level ``pos`` of an input from the rank that input carried out
of the level above.  Ternary and quaternary inputs here take every
role at every position — generating a level, probed at it, settled —
on dense and sparse levels, annotated or not, at block sizes from one
row up and with the skew sweep forced, and answer exactly what the
interpreter (:class:`~repro.engine.generic_join.BagEvaluator`) does.
"""

import itertools

import numpy as np
import pytest

from repro import Database
from repro.engine import fused
from repro.engine.codegen import InputSpec, generate_bag_plan
from repro.engine.config import EngineConfig
from repro.engine.generic_join import BagInput, evaluate_bag
from repro.engine.semiring import semiring_for
from repro.storage import Relation, Trie

#: ``(BLOCK_ROWS, PROBE_CROSSOVER)`` the kernel runs under (``None``:
#: the built-in constant), as ``test_block_parity.py`` patches them.
KERNEL_CONSTANTS = [(None, None), (1, None), (7, None), (64, None),
                    (5, 1.0)]

#: Domain per input arity: small enough that the interpreter stays fast
#: on the densest quaternary relation.
DOMAIN = {3: 5, 4: 4}


def codes(rng, arity, density, domain, scale):
    """Distinct rows of ``arity`` codes below ``domain * scale``
    (``scale`` > 1 spreads them: sparse roots and levels).  A dense
    relation stores 85% of the code space; a sparse one ``2 * domain``
    rows, none starting with the largest code, so that its root is
    the smaller one and its child lists are short at every level."""
    space = np.asarray(list(itertools.product(range(domain),
                                              repeat=arity)))
    if density == "dense":
        rows = space[rng.random_sample(len(space)) < 0.85]
    else:
        space = space[space[:, 0] < domain - 1]
        rows = space[rng.permutation(len(space))[:2 * domain]]
    return (rows * scale).astype(np.uint32)


def weights(rows, salt):
    """Exact-in-float weights in [-2, 2] that vary with the row."""
    return ((rows.astype(np.int64).sum(axis=1) * 7 + salt) % 17 - 8) / 4.0


def chain_bag(k, inner, outer, annotated, scale=1, seed=0):
    """``R(x0..x{k-1})`` joined with a binary ``P(x{i-1}, x{i})`` per
    link and a unary ``U(x{k-1})``: at level ``i`` the k-ary input sits
    at position ``i`` beside a child-level ``P`` and a root ``P``.
    ``inner`` is ``R``'s density and ``outer`` the others', which
    decides who generates a level and who is probed.  Returns
    ``(order, specs, tries, inputs)``."""
    rng = np.random.RandomState(seed * 10 + k)
    order = tuple("x%d" % i for i in range(k))
    domain = DOMAIN[k]
    atoms = [("R", order, codes(rng, k, inner, domain, scale))]
    atoms += [("P%d" % i, order[i - 1:i + 1],
               codes(rng, 2, outer, domain, scale)) for i in range(1, k)]
    atoms.append(("U", order[-1:], codes(rng, 1, "dense", domain, scale)))
    specs, tries, inputs = [], [], []
    for index, (name, variables, rows) in enumerate(atoms):
        trie = Trie(Relation(name, rows, weights(rows, index)
                             if annotated else None))
        specs.append(InputSpec(name, variables, annotated=annotated))
        tries.append(trie)
        inputs.append(BagInput(trie, variables, annotated=annotated,
                               name=name))
    return order, specs, tries, inputs


def kernel_config():
    return EngineConfig(execution_mode="compiled")


def run_blocked(kernel, tries, rows, crossover):
    """``kernel`` under the ``(rows, crossover)`` constants."""
    with pytest.MonkeyPatch.context() as patch:
        if rows is not None:
            patch.setattr(fused, "BLOCK_ROWS", rows)
        if crossover is not None:
            patch.setattr(fused, "PROBE_CROSSOVER", crossover)
        return kernel(tries, kernel_config())


def assert_parity(order, specs, tries, inputs, out, name):
    """The kernel answers what the interpreter answers, bit for bit,
    under every :data:`KERNEL_CONSTANTS` entry."""
    semiring = semiring_for(name)
    expected = evaluate_bag(order, out, inputs, semiring, kernel_config())
    kernel = generate_bag_plan(order, out, specs, semiring)
    for rows, crossover in KERNEL_CONSTANTS:
        got = run_blocked(kernel, tries, rows, crossover)
        assert got.scalar == expected.scalar, (rows, crossover)
        assert np.array_equal(got.data, expected.data), (rows, crossover)
        if expected.annotations is None:
            assert got.annotations is None
        else:
            assert np.array_equal(got.annotations, expected.annotations), \
                (rows, crossover)
    return expected


def bag_shapes(k):
    """``(out, semiring name)`` pairs of a k-level bag: scalar and
    keyed folds under every block fold, and the materializing bag."""
    return [(out, name) for out in (0, 1) for name in fused.FUSED_SEMIRINGS] \
        + [(k, "EXISTS")]


class TestFlatLevels:
    @pytest.mark.parametrize("arity", [3, 4])
    def test_levels_spell_the_sorted_tuples(self, arity):
        """Walking the CSR chain from the root yields every stored
        tuple in order; each level's packed prefixes are sorted and
        the last level's rows are the tuples themselves."""
        rows = codes(np.random.RandomState(arity), arity, "sparse", 5, 3)
        trie = Trie(Relation("R", rows))
        flat = trie.flat()
        assert len(flat.levels) == arity
        prefixes = [(int(v),) for v in flat.keys]
        for offsets, values, packed in flat.levels[1:]:
            assert np.all(packed[1:] > packed[:-1])
            prefixes = [prefix + (int(values[row]),)
                        for parent, prefix in enumerate(prefixes)
                        for row in range(offsets[parent],
                                         offsets[parent + 1])]
        assert prefixes == [tuple(map(int, row))
                            for row in trie.sorted_data]
        assert flat.levels[-1][1].size == trie.cardinality

    def test_binary_view_is_its_level_one(self):
        trie = Trie(Relation("E", codes(np.random.RandomState(1), 2,
                                        "dense", 6, 1)))
        flat = trie.flat()
        assert flat.levels[1] == (flat.offsets, flat.values, flat.packed)
        assert np.array_equal(flat.values, trie.sorted_data[:, 1])


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("inner,outer", [("sparse", "dense"),
                                         ("dense", "sparse"),
                                         ("dense", "dense")])
@pytest.mark.parametrize("annotated", [False, True],
                         ids=["plain", "annotated"])
@pytest.mark.parametrize("scale", [1, 40], ids=["dense-codes",
                                               "sparse-codes"])
def test_chain_parity(k, inner, outer, annotated, scale):
    order, specs, tries, inputs = chain_bag(k, inner, outer, annotated,
                                            scale)
    for out, name in bag_shapes(k):
        expected = assert_parity(order, specs, tries, inputs, out, name)
    assert expected.cardinality > 0


def test_every_position_generates_and_is_probed(monkeypatch):
    """Across the chain bags, the k-ary input generates some level at
    every position and is probed at every position (a child-level
    probe reads the packed prefixes keyed by its carried rank)."""
    roles = set()
    init = fused._Level.__init__

    def recorded(level, counts, first, values, settled, probed, *rest):
        for part, rank_of in settled:
            if part.index == 0:
                roles.add((part.pos, "generates" if rank_of is None
                           else "probed"))
        roles.update((part.pos, "probed") for part, _, _ in probed
                     if part.index == 0)
        init(level, counts, first, values, settled, probed, *rest)
    monkeypatch.setattr(fused._Level, "__init__", recorded)
    for k in (3, 4):
        roles.clear()
        for inner, outer in (("sparse", "dense"), ("dense", "sparse")):
            for annotated in (False, True):
                order, specs, tries, _ = chain_bag(k, inner, outer,
                                                   annotated)
                kernel = generate_bag_plan(order, k, specs,
                                           semiring_for("EXISTS"))
                kernel(tries, kernel_config())
        assert roles == {(pos, role) for pos in range(k)
                         for role in ("generates", "probed")}, k


@pytest.mark.parametrize("k", [3, 4])
def test_permuted_k_ary_inputs(k):
    """Two k-ary inputs over the same attributes in different column
    orders: each is keyed by its own order's restriction, one generates
    where the other is probed, at every position below the root."""
    rng = np.random.RandomState(k)
    order = tuple("x%d" % i for i in range(k))
    domain = DOMAIN[k]
    specs, tries, inputs = [], [], []
    for index, (variables, density) in enumerate((
            (order, "dense"), (order[1:] + order[:1], "sparse"))):
        rows = codes(rng, k, density, domain, 1)
        trie = Trie(Relation("R%d" % index, rows, weights(rows, index)),
                    key_order=tuple(variables.index(a) for a in order))
        specs.append(InputSpec(trie.name, order, annotated=True))
        tries.append(trie)
        inputs.append(BagInput(trie, order, annotated=True))
    for out, name in bag_shapes(k):
        expected = assert_parity(order, specs, tries, inputs, out, name)
    assert expected.cardinality > 0


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("empty", [0, 1], ids=["k-ary", "partner"])
def test_empty_input(k, empty):
    order, specs, tries, inputs = chain_bag(k, "dense", "dense", True)
    relation = Relation("E", np.empty((0, len(specs[empty].variables)),
                                      dtype=np.uint32), np.empty(0))
    tries[empty] = Trie(relation)
    inputs[empty] = BagInput(tries[empty], specs[empty].variables,
                             annotated=True)
    for out, name in bag_shapes(k):
        expected = assert_parity(order, specs, tries, inputs, out, name)
        assert expected.cardinality == 0


# -- whole queries ------------------------------------------------------------

QUAD = sorted({tuple(int(v) for v in row) for row in np.random.RandomState(
    0).randint(0, 8, size=(400, 4))})
EDGES = sorted({tuple(int(v) for v in row) for row in np.random.RandomState(
    1).randint(0, 8, size=(40, 2))})

#: The 4-clique over ``x, a, b, c`` is the root bag and ``V`` the child
#: bag over ``a, b, c, d``; the child folds ``d`` away and passes
#: ``a, b, c`` up as a ternary annotated input.
THREE_COLUMN_PASS_UP = ("Q(x;w:float) :- E(x,a),E(x,b),E(x,c),E(a,b),"
                        "E(b,c),E(a,c),V(a,b,c,d); w=<<SUM(*)>>.")


def quad_db(mode):
    db = Database(execution_mode=mode)
    db.add_relation("E", EDGES, annotations=[float(i % 5 - 2)
                                             for i in range(len(EDGES))])
    db.add_relation("V", QUAD, annotations=[float(i % 3 + 1) / 4
                                            for i in range(len(QUAD))])
    return db


@pytest.mark.parametrize("rows,crossover", KERNEL_CONSTANTS)
def test_three_column_annotated_pass_up(rows, crossover):
    expected = quad_db("interpreted").query(THREE_COLUMN_PASS_UP)
    with pytest.MonkeyPatch.context() as patch:
        if rows is not None:
            patch.setattr(fused, "BLOCK_ROWS", rows)
        if crossover is not None:
            patch.setattr(fused, "PROBE_CROSSOVER", crossover)
        db = quad_db("compiled")
        got = db.query(THREE_COLUMN_PASS_UP)
    assert any(bag.inputs[-1] == "pass:a,b,c"
               for bag in db._executor.last_plan.bags)
    stats = db.last_stats
    assert stats.fused_blocks == stats.compiled_bag_calls == 2
    assert np.array_equal(got.relation.data, expected.relation.data)
    assert np.array_equal(got.annotations, expected.annotations)
    assert got.count > 0
