"""The generic worst-case optimal join over tries (paper Algorithm 1).

One GHD bag is evaluated by binding its attributes one at a time in the
bag's evaluation order; at each level the candidate values are the
intersection of the sets offered by every relation containing that
attribute.  The intersection kernels provide the min property, so the
whole bag runs within its AGM bound.

The evaluator splits the attribute order into an *output* prefix and an
*aggregated* suffix: output levels enumerate and emit values, while
suffix levels fold annotations with the rule's semiring without ever
materializing bindings — the "early aggregation" that GHD plans enable
(paper §3.1.1).  Two leaf-level fast paths keep the inner loop
vectorized: unannotated counting uses set cardinalities directly, and
annotated folds gather annotation vectors with one ``searchsorted``.
This module is the differential oracle of the block kernels
(:mod:`repro.engine.fused`), so it shares no evaluation route with
them: the default engine never constructs a :class:`BagEvaluator`, and
the only answers given without the loop nest (an empty input, an
identity scan) involve no join work.
"""

import numpy as np

from ..errors import ExecutionError
from ..sets.intersect import intersect_many
from .semiring import EXISTS, Semiring


class BagInput:
    """One relation participating in a bag's generic join.

    ``variables`` must equal the trie's level order restricted to this
    atom — i.e. ``trie.key_order`` already reflects the bag evaluation
    order.
    """

    __slots__ = ("trie", "variables", "annotated", "name")

    def __init__(self, trie, variables, annotated=False, name=None):
        self.trie = trie
        self.variables = tuple(variables)
        self.annotated = annotated
        self.name = name if name is not None else trie.name
        if len(self.variables) != trie.arity:
            raise ExecutionError(
                "input %s has %d variables but trie arity %d"
                % (self.name, len(self.variables), trie.arity))


class BagResult:
    """Materialized output of one bag.

    ``data`` is an ``(n, k)`` uint32 matrix over ``out_attrs``;
    ``annotations`` is a parallel float array (or ``None``);
    0-attribute aggregates expose the folded value as :attr:`scalar`.
    ``canonical`` is the producer's word that the rows are lexsorted
    and distinct in ``out_attrs`` order (a re-mapped copy starts over
    at ``False``).
    """

    __slots__ = ("out_attrs", "data", "annotations", "scalar", "canonical")

    def __init__(self, out_attrs, data, annotations=None, scalar=None,
                 canonical=False):
        self.out_attrs = tuple(out_attrs)
        self.data = data
        self.annotations = annotations
        self.scalar = scalar
        self.canonical = canonical

    @property
    def cardinality(self):
        """Number of result tuples."""
        return int(self.data.shape[0])

    def __repr__(self):
        if self.scalar is not None and not self.out_attrs:
            return "BagResult(scalar=%s)" % self.scalar
        return "BagResult(%s, %d tuples)" % (list(self.out_attrs),
                                             self.cardinality)


def empty_bag_result(eval_order, out_count, semiring):
    """The :class:`BagResult` of a bag with no bindings."""
    if out_count == 0:
        return BagResult((), np.empty((0, 0), dtype=np.uint32),
                         scalar=semiring.zero)
    return BagResult(tuple(eval_order)[:out_count],
                     np.empty((0, out_count), dtype=np.uint32),
                     annotations=np.empty(0, dtype=np.float64))


def assemble_chunks(eval_order, out_count, chunks, semiring):
    """Concatenate emission chunks into one :class:`BagResult`.

    A chunk is ``(prefix_tuple, values_array, ann_array)``: either a
    pure-leaf run (``values`` holds the last output column for one
    prefix) or a boundary emission (``values`` empty, the prefix is a
    complete row with one annotation).  Shared by the interpreting
    :class:`BagEvaluator` and the generated code, which guarantees both
    produce byte-identical result arrays for the same chunk stream.
    """
    out_attrs = tuple(eval_order)[:out_count]
    if not chunks:
        return empty_bag_result(eval_order, out_count, semiring)
    rows = []
    anns = []
    for prefix, values, factors in chunks:
        if values.shape[0]:
            block = np.empty((values.shape[0], out_count),
                             dtype=np.uint32)
            for column, value in enumerate(prefix):
                block[:, column] = value
            block[:, out_count - 1] = values
            rows.append(block)
            anns.append(factors)
        else:
            rows.append(np.asarray(prefix,
                                   dtype=np.uint32).reshape(1, -1))
            anns.append(factors)
    data = np.concatenate(rows) if rows \
        else np.empty((0, out_count), dtype=np.uint32)
    annotations = np.concatenate(anns) if anns else None
    return BagResult(out_attrs, data, annotations=annotations)


class BagEvaluator:
    """Runs Algorithm 1 for one bag.

    Parameters
    ----------
    eval_order:
        The bag's attributes, output attributes first.
    out_count:
        How many leading attributes of ``eval_order`` are emitted.
    inputs:
        :class:`BagInput` list.
    semiring:
        Fold for the aggregated suffix (ignored when
        ``out_count == len(eval_order)``); :data:`EXISTS` gives
        set-semantics projection.
    config:
        :class:`~repro.engine.config.EngineConfig` supplying the
        intersection switches and op counter.
    """

    def __init__(self, eval_order, out_count, inputs, semiring, config):
        self.order = tuple(eval_order)
        self.out_count = out_count
        self.inputs = list(inputs)
        self.semiring = semiring if semiring is not None else EXISTS
        if not isinstance(self.semiring, Semiring):
            raise ExecutionError("semiring must be a Semiring instance")
        self.config = config
        self.n_levels = len(self.order)
        # Precompute, per level, which inputs participate and at which of
        # their own levels the attribute sits.
        self.participants = []
        for level, attr in enumerate(self.order):
            rows = []
            for index, bag_input in enumerate(self.inputs):
                if attr in bag_input.variables:
                    position = bag_input.variables.index(attr)
                    is_last = position == len(bag_input.variables) - 1
                    rows.append((index, is_last))
            if not rows:
                raise ExecutionError("attribute %r not covered by any "
                                     "input" % (attr,))
            self.participants.append(rows)
        self._cursors = [bag_input.trie.root for bag_input in self.inputs]
        self._chunks = []       # (prefix_tuple, values_array, ann_array)
        self._prefix = []
        # Observability hooks, resolved once so the per-intersection
        # cost when disabled is a single ``is not None`` check.
        self._metrics = getattr(config, "metrics", None)
        tracer = getattr(config, "tracer", None)
        self._trace = tracer if (tracer is not None and tracer.enabled
                                 and tracer.capture_intersections) \
            else None

    # -- public -------------------------------------------------------------

    def run(self):
        """Evaluate the bag and return a :class:`BagResult`.

        An empty input or an identity scan is answered without
        entering the loop nest."""
        if any(inp.trie.cardinality == 0 for inp in self.inputs):
            return self._empty_result()
        scan = self._try_identity_scan()
        if scan is not None:
            return scan
        if self.out_count == 0:
            scalar, _ = self._fold(0, 1.0)
            return BagResult((), np.empty((0, 0), dtype=np.uint32),
                             scalar=scalar)
        self._emit(0, 1.0)
        return self._assemble()

    # -- identity scan fast path ----------------------------------------------

    def _try_identity_scan(self):
        """A bag with a single input whose attributes are all emitted is
        just that relation's (already sorted, deduplicated) tuples —
        no joins happen, so skip the loop nest entirely."""
        if len(self.inputs) != 1 or self.out_count != self.n_levels:
            return None
        bag_input = self.inputs[0]
        if bag_input.variables != self.order:
            return None
        data = bag_input.trie.sorted_data
        if bag_input.annotated:
            annotations = np.array(bag_input.trie.sorted_annotations)
        else:
            annotations = np.ones(data.shape[0], dtype=np.float64)
        return BagResult(self.order, data, annotations=annotations)

    # -- helpers -------------------------------------------------------------

    def _empty_result(self):
        return empty_bag_result(self.order, self.out_count, self.semiring)

    def _level_sets(self, level):
        return [self._cursors[index].set
                for index, _ in self.participants[level]]

    def _intersect(self, level):
        sets = self._level_sets(level)
        if len(sets) == 1:
            return sets[0]
        tracer = self._trace
        start = tracer.now() if tracer is not None else 0.0
        result = intersect_many(
            sets, counter=self.config.counter,
            adaptive=self.config.ablation.adaptive_algorithms,
            simd=self.config.ablation.simd)
        if tracer is not None:
            tracer.record(
                "intersect:L%d" % level, "intersect", start, tracer.now(),
                args={"inputs": [int(s.cardinality) for s in sets],
                      "out": int(result.cardinality)})
        if self._metrics is not None:
            self._metrics.observe("intersection.size",
                                  int(result.cardinality))
        return result

    def _descend(self, level, value):
        """Advance participating cursors into ``value``; returns the
        annotation product collected from inputs that just bound their
        last attribute, plus an undo list."""
        ann = 1.0
        undo = []
        for index, is_last in self.participants[level]:
            cursor = self._cursors[index]
            if is_last:
                if self.inputs[index].annotated:
                    ann *= cursor.annotation(value)
            else:
                undo.append((index, cursor))
                self._cursors[index] = cursor.child(value)
        return ann, undo

    def _undo(self, undo):
        for index, cursor in undo:
            self._cursors[index] = cursor

    def _leaf_annotated_fold(self, level, values, ann):
        """Vectorized per-value annotation products at the deepest level."""
        factors = np.full(values.shape[0], ann, dtype=np.float64)
        for index, _ in self.participants[level]:
            bag_input = self.inputs[index]
            if not bag_input.annotated:
                continue
            node = self._cursors[index]
            member_values = node.set.to_array()
            ranks = np.searchsorted(member_values, values)
            factors *= node.annotations[ranks]
        return factors

    def _leaf_has_annotations(self, level):
        return any(self.inputs[index].annotated
                   for index, _ in self.participants[level])

    # -- aggregated suffix ----------------------------------------------------

    def _fold(self, level, ann):
        """Fold the semiring over levels ``[level, n_levels)``.

        Returns ``(value, found)`` — ``found`` distinguishes "no
        bindings" from a fold that legitimately equals the semiring zero
        (e.g. annotations summing to 0.0).
        """
        candidates = self._intersect(level)
        if candidates.cardinality == 0:
            return self.semiring.zero, False
        semiring = self.semiring
        if level == self.n_levels - 1:
            if not self._leaf_has_annotations(level):
                if semiring is EXISTS:
                    return 1.0, True
                if semiring.name in ("SUM", "COUNT"):
                    return ann * candidates.cardinality, True
                return ann, True  # MIN/MAX of a constant product
            values = candidates.to_array()
            factors = self._leaf_annotated_fold(level, values, ann)
            return semiring.fold_leaf(factors), True
        total = semiring.zero
        found = False
        for value in candidates:
            child_ann, undo = self._descend(level, value)
            deeper, deeper_found = self._fold(level + 1, ann * child_ann)
            self._undo(undo)
            if deeper_found:
                total = semiring.plus(total, deeper) if found else deeper
                found = True
                if semiring is EXISTS:
                    return 1.0, True  # early exit: one witness suffices
        return total, found

    # -- output prefix --------------------------------------------------------

    def _emit(self, level, ann):
        candidates = self._intersect(level)
        if candidates.cardinality == 0:
            return
        at_out_leaf = level == self.out_count - 1
        pure_leaf = at_out_leaf and self.out_count == self.n_levels
        if pure_leaf:
            values = candidates.to_array()
            if self._leaf_has_annotations(level):
                factors = self._leaf_annotated_fold(level, values, ann)
            else:
                factors = np.full(values.shape[0], ann, dtype=np.float64)
            self._chunks.append((tuple(self._prefix), values, factors))
            return
        for value in candidates:
            child_ann, undo = self._descend(level, value)
            prefix_ann = ann * child_ann
            self._prefix.append(value)
            if at_out_leaf:
                deeper, found = self._fold(level + 1, 1.0)
                if found:
                    self._chunks.append((
                        tuple(self._prefix),
                        np.empty(0, dtype=np.uint32),
                        np.asarray([prefix_ann * deeper])))
            else:
                self._emit(level + 1, prefix_ann)
            self._prefix.pop()
            self._undo(undo)

    def _assemble(self):
        return assemble_chunks(self.order, self.out_count, self._chunks,
                               self.semiring)


def evaluate_bag(eval_order, out_count, inputs, semiring, config):
    """Convenience wrapper around :class:`BagEvaluator`."""
    return BagEvaluator(eval_order, out_count, inputs, semiring,
                        config).run()
