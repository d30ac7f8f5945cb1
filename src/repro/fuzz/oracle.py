"""The brute-force evaluator: the datalog semantics, written out.

This oracle shares *no* code with the engine: it evaluates programs by
backtracking over plain Python tuples, where the engine joins
dictionary-encoded numpy tries.  It is the one brute-force reference:
every fuzz mode (plain, ``--mutations``, ``--serve``) and the property
tests compare the engine against :func:`evaluate_program`.

Semantics implemented (matching the engine's semiring model):

* a rule's derivations are the distinct consistent bindings of all body
  variables; every body-atom occurrence contributes its matched tuple's
  annotation as a factor (unannotated atoms contribute ``1``), including
  fully-constant guard atoms;
* ``SUM``/``COUNT(*)`` add those products per head key, ``MIN``/``MAX``
  fold them, ``COUNT(v)`` counts distinct bindings of ``v`` per head key
  ignoring annotations;
* the assignment expression is applied to the folded value (``Ref``
  reads earlier 0-ary annotated heads);
* a 0-ary annotated head with no aggregate carries the assignment's
  value iff the body is satisfiable, else ``0.0``;
* recursion: union fixpoint (no aggregate), fixed-iteration replace
  (``*[i=k]``), and naive-improvement iteration for monotone MIN/MAX.

Results are normalized to ``(kind, value)`` pairs shared with the
runner: ``("set", frozenset)``, ``("map", dict)``, ``("scalar", float)``
or ``("exists", bool)``.
"""

import math

from ..query.ast import Agg, BinOp, Constant, Num, Ref, Variable

#: Fold start values per aggregate operator.
FOLD_ZERO = {"SUM": 0.0, "COUNT": 0.0, "MIN": math.inf, "MAX": -math.inf}

#: Round cap for oracle fixpoints; hitting it raises OracleDiverged.
MAX_ORACLE_ROUNDS = 5000


class OracleError(Exception):
    """The oracle could not evaluate the case (unsupported shape)."""


class OracleDiverged(OracleError):
    """A recursion did not converge within :data:`MAX_ORACLE_ROUNDS`."""


def eval_expr(expr, agg_value, env):
    """Evaluate an annotation expression over plain floats."""
    if isinstance(expr, Num):
        return float(expr.value)
    if isinstance(expr, Ref):
        if expr.name not in env:
            raise OracleError("unknown scalar %r" % expr.name)
        return env[expr.name]
    if isinstance(expr, Agg):
        if agg_value is None:
            raise OracleError("aggregate outside aggregation")
        return agg_value
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, agg_value, env)
        right = eval_expr(expr.right, agg_value, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return left / right
    raise OracleError("unknown expression node %r" % (expr,))


def _derivations(rule, catalog):
    """Yield ``(binding, annotation_product)`` for every consistent
    assignment of the body, by backtracking atom by atom."""
    atoms = rule.body
    tables = []
    for atom in atoms:
        if atom.name not in catalog:
            raise OracleError("unknown relation %r" % atom.name)
        tables.append(catalog[atom.name])

    def backtrack(index, binding, product):
        if index == len(atoms):
            yield dict(binding), product
            return
        atom = atoms[index]
        tuples, annotations = tables[index]
        for row in tuples:
            bound = []
            ok = True
            for term, value in zip(atom.terms, row):
                if isinstance(term, Constant):
                    if term.value != value:
                        ok = False
                        break
                elif isinstance(term, Variable):
                    existing = binding.get(term.name)
                    if existing is None:
                        binding[term.name] = value
                        bound.append(term.name)
                    elif existing != value:
                        ok = False
                        break
            if ok:
                factor = annotations[row] if annotations is not None \
                    else 1.0
                yield from backtrack(index + 1, binding,
                                     product * factor)
            for name in bound:
                del binding[name]

    yield from backtrack(0, {}, 1.0)


def _eval_rule(rule, catalog, env):
    """Evaluate one non-recursive rule body; returns a normalized
    ``(kind, value)`` result."""
    head = tuple(rule.head_vars)
    aggs = rule.aggregates
    if len(aggs) > 1:
        raise OracleError("more than one aggregate")
    agg = aggs[0] if aggs else None

    if agg is not None and agg.op == "COUNT" and agg.arg != "*":
        distinct = set()
        for binding, _ in _derivations(rule, catalog):
            distinct.add(tuple(binding[v] for v in head)
                         + (binding[agg.arg],))
        counts = {}
        for row in distinct:
            counts[row[:-1]] = counts.get(row[:-1], 0) + 1
        if not head:
            value = eval_expr(rule.assignment, float(counts.get((), 0)),
                              env)
            return "scalar", float(value)
        return "map", {key: float(eval_expr(rule.assignment,
                                            float(count), env))
                       for key, count in counts.items()}

    if agg is not None:
        op = agg.op
        folded = {}
        for binding, product in _derivations(rule, catalog):
            key = tuple(binding[v] for v in head)
            if op in ("SUM", "COUNT"):
                folded[key] = folded.get(key, 0.0) + product
            elif op == "MIN":
                folded[key] = min(folded.get(key, math.inf), product)
            else:
                folded[key] = max(folded.get(key, -math.inf), product)
        if not head:
            agg_value = folded.get((), FOLD_ZERO[op])
            return "scalar", float(eval_expr(rule.assignment, agg_value,
                                             env))
        return "map", {key: float(eval_expr(rule.assignment, value, env))
                       for key, value in folded.items()}

    # No aggregate: set semantics (optionally with a constant
    # annotation).
    keys = set()
    for binding, _ in _derivations(rule, catalog):
        keys.add(tuple(binding[v] for v in head))
    if rule.annotation is not None:
        value = float(eval_expr(rule.assignment, None, env))
        if not head:
            return "scalar", value if keys else 0.0
        return "map", {key: value for key in keys}
    if not head:
        return "exists", bool(keys)
    return "set", frozenset(keys)


def _as_table(kind, value):
    """Convert a normalized result into a catalog entry
    ``(tuples, {tuple: annotation} | None)``."""
    if kind == "set":
        return sorted(value), None
    if kind == "map":
        return sorted(value), dict(value)
    if kind == "scalar":
        return [], None  # 0-ary scalars join through env, not atoms
    if kind == "exists":
        return ([()] if value else []), None
    raise OracleError("unknown result kind %r" % kind)


def _eval_recursive(rule, catalog, env):
    """Run one recursive rule against the current catalog entry for its
    head (the base case) and return the normalized fixpoint."""
    name = rule.head_name
    if name not in catalog:
        raise OracleError("recursive rule %r lacks a base case" % name)
    aggs = rule.aggregates
    op = aggs[0].op if aggs else None

    if rule.iterations is not None:
        # Replace semantics: unroll, each round reading the previous
        # round's result.
        current = catalog[name]
        result = None
        for _ in range(rule.iterations):
            kind, value = _eval_rule(rule, catalog, env)
            result = (kind, value)
            current = _as_table(kind, value)
            catalog[name] = current
        if result is None:  # zero iterations: the base case stands
            tuples, annotations = catalog[name]
            result = ("map", dict(annotations)) if annotations is not None \
                else ("set", frozenset(tuples))
        return result

    if op is None:
        # Union fixpoint over set semantics.
        current = set(catalog[name][0])
        for _ in range(MAX_ORACLE_ROUNDS):
            catalog[name] = (sorted(current), None)
            kind, value = _eval_rule(rule, catalog, env)
            if kind != "set":
                raise OracleError("union recursion produced %r" % kind)
            merged = current | set(value)
            if len(merged) == len(current):
                return "set", frozenset(current)
            current = merged
        raise OracleDiverged("union recursion on %r" % name)

    if op not in ("MIN", "MAX"):
        raise OracleError("unbounded recursion with non-monotone %r" % op)
    better = (lambda new, old: new < old) if op == "MIN" \
        else (lambda new, old: new > old)
    tuples, annotations = catalog[name]
    if annotations is None:
        raise OracleError("monotone recursion needs an annotated base")
    best = dict(annotations)
    for _ in range(MAX_ORACLE_ROUNDS):
        catalog[name] = (sorted(best), dict(best))
        kind, value = _eval_rule(rule, catalog, env)
        if kind != "map":
            raise OracleError("monotone recursion produced %r" % kind)
        improved = False
        for key, produced in value.items():
            old = best.get(key)
            if old is None or better(produced, old):
                best[key] = produced
                improved = True
        if not improved:
            return "map", dict(best)
    raise OracleDiverged("monotone recursion on %r" % name)


def evaluate_program(base, rules):
    """Evaluate ``rules`` in order over the base relations ``base``.

    ``base`` maps each relation name to ``(tuples, {tuple: annotation}
    | None)``.  Returns ``{head_name: (kind, value)}`` with the *final*
    value of every derived head (a recursive pair reports its
    fixpoint).  Raises :class:`OracleError` for programs outside the
    supported shape and :class:`OracleDiverged` for non-terminating
    recursion.
    """
    catalog = {name: ([tuple(row) for row in tuples],
                      None if annotations is None
                      else {tuple(row): float(value)
                            for row, value in annotations.items()})
               for name, (tuples, annotations) in base.items()}
    env = {}
    results = {}
    for rule in rules:
        if rule.recursive:
            kind, value = _eval_recursive(rule, catalog, env)
        else:
            kind, value = _eval_rule(rule, catalog, env)
        results[rule.head_name] = (kind, value)
        catalog[rule.head_name] = _as_table(kind, value)
        if kind == "scalar":
            env[rule.head_name] = value
    return results


def evaluate_case(case):
    """:func:`evaluate_program` over a :class:`~repro.fuzz.gen.FuzzCase`'s
    relations and rules."""
    return evaluate_program(
        {relation.name: (relation.tuples,
                         None if relation.annotations is None
                         else dict(zip(map(tuple, relation.tuples),
                                       relation.annotations)))
         for relation in case.relations},
        case.rules)
