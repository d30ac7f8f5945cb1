"""Seeded random generator of schemas, data, and datalog programs.

Every case is fully determined by one integer seed.  The generator
deliberately produces the *whole* language surface the engine claims to
support — multi-way joins, self-joins, repeated variables, constants
(in- and out-of-dictionary, including fully-constant guard atoms),
projections, all four semiring aggregates with expression arithmetic,
scalar references across rules, multi-rule programs chaining derived
heads, and all three recursion modes (union fixpoint, fixed-iteration
replace, monotone seminaive).

Numeric hygiene keeps differential comparison exact: annotations are
small positive integers and expression arithmetic divides only by
powers of two, so every engine path computes the same float64 values
bit-for-bit (modulo the commutative folds, which are exact on these
integers).
"""

import random
from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..query.ast import (Agg, Atom, BinOp, Constant, HeadAnnotation, Num,
                         Ref, Rule, Variable)

#: Variable name pool (the head annotation variable ``w`` is excluded).
VARIABLE_POOL = ("a", "b", "c", "d", "e", "f")

#: Aggregate operators the generator emits.
AGG_OPS = ("SUM", "MIN", "MAX", "COUNT")

#: Every ``WIDE_EVERY``-th case seed is *wide* (:func:`_widened`): its
#: values lie ``WIDE_DOMAIN`` dictionary codes apart.
WIDE_EVERY, WIDE_DOMAIN = 2, 40

#: Every ``PAGERANK_EVERY``-th case seed is PageRank-shaped
#: (:func:`_pagerank_shaped`); half of those are wide too.
PAGERANK_EVERY = 5


@dataclass
class FuzzRelation:
    """One generated base relation: deduplicated integer tuples and an
    optional parallel annotation column (integer-valued floats)."""

    name: str
    arity: int
    tuples: List[tuple]
    annotations: Optional[List[float]] = None

    def copy(self):
        return FuzzRelation(self.name, self.arity, list(self.tuples),
                            list(self.annotations)
                            if self.annotations is not None else None)


@dataclass
class FuzzCase:
    """One generated differential test case."""

    seed: int
    relations: List[FuzzRelation]
    rules: List[Rule]
    description: str = ""
    #: Filled by the shrinker with the reduction trail.
    history: List[str] = field(default_factory=list)

    @property
    def program_text(self):
        return "\n".join(str(rule) for rule in self.rules)

    @property
    def head_names(self):
        return [rule.head_name for rule in self.rules]

    def copy(self):
        return FuzzCase(self.seed, [r.copy() for r in self.relations],
                        list(self.rules), self.description,
                        list(self.history))

    def size(self):
        """Lexicographic shrink cost: rules, atoms, tuples, domain."""
        atoms = sum(len(rule.body) for rule in self.rules)
        tuples = sum(len(r.tuples) for r in self.relations)
        values = {v for r in self.relations for t in r.tuples for v in t}
        return (len(self.rules), atoms, tuples, len(values))

    def __str__(self):
        lines = ["-- seed %d%s" % (self.seed,
                                   " (%s)" % self.description
                                   if self.description else "")]
        for relation in self.relations:
            lines.append("-- %s/%d = %s%s" % (
                relation.name, relation.arity, relation.tuples,
                " ann=%s" % relation.annotations
                if relation.annotations is not None else ""))
        lines.append(self.program_text)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def generate_case(seed, max_relations=3, max_rules=3, max_atoms=4,
                  max_tuples=18, max_domain=7):
    """Generate one :class:`FuzzCase` deterministically from ``seed``
    (every :data:`WIDE_EVERY`-th one widened)."""
    rng = random.Random(seed)
    domain = rng.randint(2, max_domain)
    if seed % PAGERANK_EVERY == PAGERANK_EVERY - 1:
        relations, rules = _pagerank_shaped(rng, domain, max_tuples)
    else:
        relations = _generate_relations(rng, domain, max_relations,
                                        max_tuples)
        rules = _generate_rules(rng, relations, domain, max_rules,
                                max_atoms)
    case = FuzzCase(seed, relations, rules)
    if seed % WIDE_EVERY == WIDE_EVERY - 1:
        case = _widened(case, domain)
    return case


def _widened(case, domain):
    """``case`` with every value ``v`` (stored or constant) relabelled
    ``v * WIDE_DOMAIN`` plus — loaded first, read by no rule — a unary
    relation of every value below ``domain * WIDE_DOMAIN``, so that
    dictionary codes, assigned in order of first appearance, keep the
    spread.  Small domains' dense codes make every binary level dense;
    here a relation's few pairs sit in a code space hundreds of times
    their number, so child-level probes search the packed pairs
    instead of a bit table.  Values only compare equal: the results
    are the narrow case's, relabelled."""
    def widen(term):
        return Constant(term.value * WIDE_DOMAIN) \
            if isinstance(term, Constant) else term

    relations = [FuzzRelation("Domain", 1, [(value,) for value in
                                            range(domain * WIDE_DOMAIN)])]
    relations += [FuzzRelation(
        r.name, r.arity,
        [tuple(v * WIDE_DOMAIN for v in row) for row in r.tuples],
        r.annotations) for r in case.relations]
    rules = [replace(rule, body=tuple(
        Atom(atom.name, tuple(map(widen, atom.terms)))
        for atom in rule.body)) for rule in case.rules]
    return FuzzCase(case.seed, relations, rules)


def _pagerank_shaped(rng, domain, max_tuples):
    """``(relations, rules)`` of a PageRank round's shape: a binary
    ``R0`` joined on its second variable with one to three unary
    annotated relations whose keys cover its values (a cycle through
    every value makes the head's and ``H0``'s, its neighbour count, do
    too), folded per first variable by SUM, MIN or MAX — a plain rule,
    or a ``*[i=k]`` recursion's body.  Atom order and ``R0``'s
    annotations vary: only unary factors that come first pre-multiply."""
    def weights(rows):
        return [float(rng.randint(1, 9)) for _ in rows]

    def rule(name, body, assignment, iterations=None):
        return Rule(head_name=name, head_vars=("a",),
                    annotation=HeadAnnotation("w", "float"),
                    recursive=iterations is not None, iterations=iterations,
                    body=tuple(body), assignment=assignment)

    pairs = {(v, (v + 1) % domain) for v in range(domain)}
    pairs |= {(rng.randrange(domain), rng.randrange(domain))
              for _ in range(rng.randint(0, max_tuples))}
    edge = sorted(pairs)
    relations = [FuzzRelation("R0", 2, edge,
                              weights(edge) if rng.random() < 0.4 else None)]
    keys = [(v,) for v in range(domain)]
    relations += [FuzzRelation("R%d" % index, 1, keys, weights(keys))
                  for index in range(1, rng.randint(2, 3))]
    unary = [relation.name for relation in relations[1:]]
    edge_atom = Atom("R0", (Variable("a"), Variable("b")))
    rules = []
    if rng.random() < 0.5:
        unary.append("H0")
        rules.append(rule("H0", [edge_atom], _wrap_aggregate(
            rng, Agg("COUNT", "b"), [])))
    unary = rng.sample(unary, rng.randint(1, min(3, len(unary))))
    iterations = None
    if rng.random() < 0.5:
        iterations = rng.randint(1, 3)
        unary = ["H1"] + unary[:2]
        rules.append(rule("H1", [edge_atom], _constant_expression(rng, [])))
    body = [edge_atom] + [Atom(name, (Variable("b"),)) for name in unary]
    rng.shuffle(body)
    rules.append(rule("H1", body, _wrap_aggregate(rng, Agg(rng.choice(
        ("SUM", "MIN", "MAX")), "b"), []), iterations))
    return relations, rules


def _generate_relations(rng, domain, max_relations, max_tuples):
    relations = []
    for index in range(rng.randint(1, max_relations)):
        arity = rng.choices((1, 2, 3, 4), weights=(2, 6, 1, 1))[0]
        space = domain ** arity
        # Occasionally empty: the engine's empty-trie / empty-guard
        # paths are exactly the kind of corner differential testing is
        # for.
        if rng.random() < 0.06:
            count = 0
        else:
            count = rng.randint(1, min(max_tuples, space))
        seen = set()
        for _ in range(count * 3):
            if len(seen) >= count:
                break
            seen.add(tuple(rng.randrange(domain) for _ in range(arity)))
        tuples = sorted(seen)
        annotations = None
        if tuples and rng.random() < 0.4:
            annotations = [float(rng.randint(1, 9)) for _ in tuples]
        relations.append(FuzzRelation("R%d" % index, arity, tuples,
                                      annotations))
    return relations


def _generate_rules(rng, relations, domain, max_rules, max_atoms,
                    sources=None, prefix="H"):
    rules = []
    #: name -> (arity, annotated) for every relation an atom may use.
    if sources is None:
        sources = {r.name: (r.arity, r.annotations is not None)
                   for r in relations}
    else:
        sources = dict(sources)
    scalar_heads = []  # 0-ary aggregate heads usable as Refs
    head_index = 0
    budget = rng.randint(1, max_rules)
    while len(rules) < budget:
        head_name = "%s%d" % (prefix, head_index)
        head_index += 1
        remaining = budget - len(rules)
        if remaining >= 2 and rng.random() < 0.3:
            pair = _generate_recursive_pair(rng, sources, domain,
                                            head_name, max_atoms)
            if pair is not None:
                base, rec, annotated = pair
                rules.extend((base, rec))
                sources[head_name] = (len(base.head_vars), annotated)
                continue
        rule = _generate_rule(rng, sources, scalar_heads, domain,
                              head_name, max_atoms)
        rules.append(rule)
        if rule.annotation is not None and not rule.head_vars:
            scalar_heads.append(head_name)
        sources[head_name] = (len(rule.head_vars),
                              rule.annotation is not None
                              and bool(rule.head_vars))
    return rules


def _generate_body(rng, sources, domain, max_atoms, n_atoms=None):
    """Random conjunctive body over the available sources.

    Variable reuse is biased high so most bodies actually join;
    constants appear with moderate probability, occasionally
    out-of-domain (an always-empty selection) and occasionally filling
    every position of an atom (a guard).
    """
    # 0-ary heads participate through ``Ref`` in expressions, not as
    # body atoms.
    names = [n for n, (arity, _) in sources.items() if arity >= 1]
    if n_atoms is None:
        n_atoms = rng.randint(1, max_atoms)
    atoms = []
    used_vars = []
    for _ in range(n_atoms):
        name = rng.choice(names)
        arity = sources[name][0]
        terms = []
        for _ in range(arity):
            roll = rng.random()
            if roll < 0.12:
                if rng.random() < 0.2:
                    value = domain + 3  # absent from every dictionary
                else:
                    value = rng.randrange(domain)
                terms.append(Constant(value))
            elif used_vars and roll < 0.75:
                terms.append(Variable(rng.choice(used_vars)))
            else:
                fresh = [v for v in VARIABLE_POOL if v not in used_vars]
                var = rng.choice(fresh) if fresh \
                    else rng.choice(VARIABLE_POOL)
                used_vars.append(var) if var not in used_vars else None
                terms.append(Variable(var))
        atoms.append(Atom(name, tuple(terms)))
    body_vars = []
    for atom in atoms:
        for var in atom.variables:
            if var not in body_vars:
                body_vars.append(var)
    return atoms, body_vars


def _generate_rule(rng, sources, scalar_heads, domain, head_name,
                   max_atoms):
    atoms, body_vars = _generate_body(rng, sources, domain, max_atoms)
    while not body_vars:
        # A body of pure guards supports no head; reroll.
        atoms, body_vars = _generate_body(rng, sources, domain, max_atoms)
    if rng.random() < 0.5:
        # Materialization (set semantics), optionally with a constant
        # annotation column.
        k = rng.randint(1, min(3, len(body_vars)))
        head_vars = tuple(rng.sample(body_vars, k))
        annotation = None
        assignment = None
        if rng.random() < 0.15:
            annotation = HeadAnnotation("w", "float")
            assignment = _constant_expression(rng, scalar_heads)
        return Rule(head_name=head_name, head_vars=head_vars,
                    annotation=annotation, recursive=False,
                    iterations=None, body=tuple(atoms),
                    assignment=assignment)
    # Aggregation (a three-column head read by a later rule is a
    # ternary annotated input there).
    k = rng.randint(0, min(3, len(body_vars)))
    head_vars = tuple(rng.sample(body_vars, k))
    op = rng.choice(AGG_OPS)
    non_head = [v for v in body_vars if v not in head_vars]
    if op == "COUNT":
        arg = rng.choice(non_head) if non_head and rng.random() < 0.6 \
            else "*"
    else:
        arg = rng.choice(non_head) if non_head else rng.choice(body_vars)
    assignment = _wrap_aggregate(rng, Agg(op, arg), scalar_heads)
    return Rule(head_name=head_name, head_vars=head_vars,
                annotation=HeadAnnotation("w", "float"), recursive=False,
                iterations=None, body=tuple(atoms),
                assignment=assignment)


def _constant_expression(rng, scalar_heads):
    """Aggregate-free assignment for annotated materializations."""
    expr = Num(float(rng.randint(1, 9)))
    if scalar_heads and rng.random() < 0.4:
        expr = BinOp("*", expr, Ref(rng.choice(scalar_heads)))
    return expr


def _wrap_aggregate(rng, agg, scalar_heads):
    """Optionally wrap an aggregate in exact float arithmetic."""
    expr = agg
    roll = rng.random()
    if roll < 0.25:
        expr = BinOp("+", expr, Num(float(rng.randint(1, 4))))
    elif roll < 0.4:
        expr = BinOp("*", Num(float(rng.randint(2, 3))), expr)
    elif roll < 0.5:
        expr = BinOp("/", expr, Num(float(rng.choice((2, 4)))))
    elif roll < 0.58 and scalar_heads:
        expr = BinOp("+", expr, Ref(rng.choice(scalar_heads)))
    return expr


def _generate_recursive_pair(rng, sources, domain, head_name, max_atoms):
    """Base rule + recursive rule, one of three recursion modes.

    Returns ``(base, recursive, head_annotated)`` or ``None`` when the
    available sources cannot seed a well-formed base case.
    """
    binary = [(name, info) for name, info in sources.items()
              if info[0] >= 1]
    if not binary:
        return None
    mode = rng.choice(("union", "replace", "monotone"))
    base_atoms, base_vars = _generate_body(rng, sources, domain,
                                           max_atoms=2)
    if not base_vars:
        return None
    head_arity = rng.randint(1, min(2, len(base_vars)))
    head_vars = tuple(rng.sample(base_vars, head_arity))
    if mode == "union":
        base = Rule(head_name=head_name, head_vars=head_vars,
                    annotation=None, recursive=False, iterations=None,
                    body=tuple(base_atoms), assignment=None)
        rec_atoms, rec_vars = _recursive_body(rng, sources, head_name,
                                              head_arity, domain,
                                              nonlinear=True)
        if rec_vars is None:
            return None
        rec_head = tuple(rng.sample(rec_vars, min(head_arity,
                                                  len(rec_vars))))
        if len(rec_head) != head_arity:
            return None
        rec = Rule(head_name=head_name, head_vars=rec_head,
                   annotation=None, recursive=True, iterations=None,
                   body=tuple(rec_atoms), assignment=None)
        return base, rec, False
    # Aggregating base for replace / monotone recursion.
    op = rng.choice(("SUM", "MIN", "MAX", "COUNT")) if mode == "replace" \
        else rng.choice(("MIN", "MAX"))
    non_head = [v for v in base_vars if v not in head_vars]
    arg = rng.choice(non_head) if non_head else rng.choice(base_vars)
    if op == "COUNT" and not non_head:
        arg = "*"
    base = Rule(head_name=head_name, head_vars=head_vars,
                annotation=HeadAnnotation("w", "float"), recursive=False,
                iterations=None, body=tuple(base_atoms),
                assignment=Agg(op, arg))
    unannotated_only = mode == "monotone" and op == "MAX"
    # A second head atom multiplies two head values: under MIN over
    # annotations >= 1 that still converges; under MAX it would grow
    # without bound, and replace-mode SUMs would leave exact floats.
    rec_atoms, rec_vars = _recursive_body(
        rng, sources, head_name, head_arity, domain,
        unannotated_only=unannotated_only,
        nonlinear=mode == "monotone" and op == "MIN")
    if rec_vars is None:
        return None
    rec_head = tuple(rng.sample(rec_vars, min(head_arity,
                                              len(rec_vars))))
    if len(rec_head) != head_arity:
        return None
    rec_non_head = [v for v in rec_vars if v not in rec_head]
    if mode == "replace":
        rec_op = rng.choice(("SUM", "MIN", "MAX"))
        rec_arg = rng.choice(rec_non_head) if rec_non_head \
            else rng.choice(rec_vars)
        assignment = _wrap_aggregate(rng, Agg(rec_op, rec_arg), [])
        rec = Rule(head_name=head_name, head_vars=rec_head,
                   annotation=HeadAnnotation("w", "float"),
                   recursive=True, iterations=rng.randint(1, 3),
                   body=tuple(rec_atoms), assignment=assignment)
        return base, rec, bool(rec_head)
    # Monotone seminaive: MIN may add a non-negative constant (values
    # stay bounded below), MAX must stay bare (any increment diverges
    # on cycles).
    rec_arg = rng.choice(rec_non_head) if rec_non_head \
        else rng.choice(rec_vars)
    if op == "MIN":
        assignment = Agg("MIN", rec_arg)
        if rng.random() < 0.6:
            assignment = BinOp("+", assignment,
                               Num(float(rng.randint(0, 2))))
    else:
        assignment = Agg("MAX", rec_arg)
    if not rec_head:
        return None
    rec = Rule(head_name=head_name, head_vars=rec_head,
               annotation=HeadAnnotation("w", "float"), recursive=True,
               iterations=None, body=tuple(rec_atoms),
               assignment=assignment)
    return base, rec, True


def _recursive_body(rng, sources, head_name, head_arity, domain,
                    unannotated_only=False, nonlinear=False):
    """Body for a recursive rule: one atom over the head plus one or two
    source atoms sharing variables with it — and, for a quarter of the
    ``nonlinear`` bodies, a second head atom, which a seminaive round
    over the delta alone would get wrong."""
    candidates = [name for name, (arity, annotated) in sources.items()
                  if arity >= 1 and not (unannotated_only and annotated)]
    if not candidates:
        return None, None
    head_atom_vars = list(rng.sample(VARIABLE_POOL, head_arity))
    atoms = [Atom(head_name, tuple(Variable(v) for v in head_atom_vars))]
    used = list(head_atom_vars)
    names = [rng.choice(candidates) for _ in range(rng.randint(1, 2))]
    if nonlinear and rng.random() < 0.25:
        names.append(head_name)
    for name in names:
        arity = head_arity if name == head_name else sources[name][0]
        terms = []
        for _ in range(arity):
            if used and rng.random() < 0.7:
                terms.append(Variable(rng.choice(used)))
            else:
                fresh = [v for v in VARIABLE_POOL if v not in used]
                var = rng.choice(fresh) if fresh \
                    else rng.choice(VARIABLE_POOL)
                if var not in used:
                    used.append(var)
                terms.append(Variable(var))
        atoms.append(Atom(name, tuple(terms)))
    rng.shuffle(atoms)
    body_vars = []
    for atom in atoms:
        for var in atom.variables:
            if var not in body_vars:
                body_vars.append(var)
    return atoms, body_vars


# ---------------------------------------------------------------------------
# validation (used by the shrinker to reject ill-formed reductions)
# ---------------------------------------------------------------------------


def validate_case(case):
    """Whether ``case`` is a well-formed program the engine supports.

    Checks name resolution, arities, head-variable boundedness, the
    one-aggregate restriction, and the recursion preconditions (base
    case present; unbounded recursion only for union or monotone
    MIN/MAX).  The shrinker uses this to discard reductions that would
    fail for reasons other than the bug being minimized.
    """
    sources = {r.name: r.arity for r in case.relations}
    if len(sources) != len(case.relations):
        return False
    for rule in case.rules:
        if rule.head_name in (r.name for r in case.relations):
            return False
        for atom in rule.body:
            arity = sources.get(atom.name)
            if atom.name == rule.head_name:
                if not rule.recursive and arity is None:
                    return False
            if arity is None and atom.name != rule.head_name:
                return False
            if arity is not None and len(atom.terms) != arity:
                return False
        body_vars = set(rule.body_variables)
        if not set(rule.head_vars) <= body_vars:
            return False
        if len(set(rule.head_vars)) != len(rule.head_vars):
            return False
        aggs = rule.aggregates
        if len(aggs) > 1:
            return False
        if rule.annotation is not None and rule.assignment is None:
            return False
        if aggs:
            agg = aggs[0]
            if agg.arg != "*" and agg.arg not in body_vars:
                return False
            if agg.op == "COUNT" and agg.arg != "*" \
                    and agg.arg in rule.head_vars:
                return False
        if rule.recursive:
            if rule.head_name not in sources:
                return False
            if sources[rule.head_name] != len(rule.head_vars):
                return False
            if rule.iterations is None and aggs \
                    and aggs[0].op not in ("MIN", "MAX"):
                return False
        sources[rule.head_name] = len(rule.head_vars)
    return True


# ---------------------------------------------------------------------------
# mutation cases (incremental-maintenance fuzzing)
# ---------------------------------------------------------------------------


@dataclass
class MutationOp:
    """One step of an interleaved mutate/query sequence."""

    kind: str  # "append" | "delete" | "query"
    target: Optional[str] = None
    tuples: Optional[List[tuple]] = None
    annotations: Optional[List[float]] = None

    def __str__(self):
        if self.kind == "query":
            return "query"
        suffix = "" if self.annotations is None \
            else " ann=%s" % self.annotations
        return "%s %s %s%s" % (self.kind, self.target, self.tuples,
                               suffix)


@dataclass
class MutationCase:
    """One generated incremental-maintenance test case: base relations,
    materialized views over them (and over each other), a query program,
    and an interleaved append/delete/query op sequence.

    The runner checks every query op differentially: engine configs
    against each other and against a from-scratch full-rebuild oracle
    (a fresh database loaded with the mirrored post-mutation contents).
    """

    seed: int
    relations: List[FuzzRelation]
    views: List[tuple]  # (name, Rule) in installation order
    query_rules: List[Rule]
    ops: List[MutationOp]

    @property
    def query_text(self):
        return "\n".join(str(rule) for rule in self.query_rules)

    @property
    def head_names(self):
        """View names plus query heads, deduplicated, install order."""
        names = [name for name, _ in self.views]
        for rule in self.query_rules:
            if rule.head_name not in names:
                names.append(rule.head_name)
        return names

    def __str__(self):
        lines = ["-- seed %d (mutation)" % self.seed]
        for relation in self.relations:
            lines.append("-- %s/%d = %s%s" % (
                relation.name, relation.arity, relation.tuples,
                " ann=%s" % relation.annotations
                if relation.annotations is not None else ""))
        for name, rule in self.views:
            lines.append("-- view %s: %s" % (name, rule))
        lines.append(self.query_text)
        lines.append("-- ops:")
        for op in self.ops:
            lines.append("--   %s" % op)
        return "\n".join(lines)


def initial_mirror(relations):
    """``{name: {tuple: annotation-or-None}}`` for the base contents —
    the ground truth the oracle rebuilds from at every query op."""
    mirror = {}
    for relation in relations:
        annotations = relation.annotations \
            if relation.annotations is not None \
            else [None] * len(relation.tuples)
        mirror[relation.name] = dict(zip(relation.tuples, annotations))
    return mirror


def apply_op_to_mirror(mirror, op):
    """Replay one mutation op onto the mirror (queries are no-ops).

    Matches the engine's semantics: appends upsert with last-writer-wins
    annotations; deletes of absent tuples are no-ops.
    """
    if op.kind == "append":
        table = mirror[op.target]
        annotations = op.annotations if op.annotations is not None \
            else [None] * len(op.tuples)
        for row, annotation in zip(op.tuples, annotations):
            table[row] = annotation
    elif op.kind == "delete":
        table = mirror[op.target]
        for row in op.tuples:
            table.pop(row, None)


def generate_mutation_case(seed, max_relations=3, max_tuples=14,
                           max_domain=6, max_ops=8):
    """Generate one :class:`MutationCase` deterministically from
    ``seed``."""
    rng = random.Random(seed)
    domain = rng.randint(2, max_domain)
    relations = _generate_relations(rng, domain, max_relations,
                                    max_tuples)
    views, query_rules = None, None
    for _ in range(20):
        candidate_views, view_sources = _generate_views(rng, relations,
                                                        domain)
        candidate_queries = _generate_rules(rng, relations, domain,
                                            max_rules=2, max_atoms=3,
                                            sources=view_sources,
                                            prefix="Q")
        probe = FuzzCase(seed, relations,
                         [rule for _, rule in candidate_views]
                         + candidate_queries)
        if validate_case(probe):
            views, query_rules = candidate_views, candidate_queries
            break
    if views is None:
        views, query_rules = _trivial_program(relations)
    ops = _generate_ops(rng, relations, domain, max_ops)
    return MutationCase(seed, relations, views, query_rules, ops)


def _generate_views(rng, relations, domain):
    """1–2 single-rule views; later views may read earlier ones (the
    refresh fixpoint has to propagate deltas through the chain)."""
    sources = {r.name: (r.arity, r.annotations is not None)
               for r in relations}
    views = []
    for index in range(rng.randint(1, 2)):
        name = "V%d" % index
        rule = _generate_rule(rng, sources, [], domain, name,
                              max_atoms=3)
        views.append((name, rule))
        sources[name] = (len(rule.head_vars),
                         rule.annotation is not None
                         and bool(rule.head_vars))
    return views, sources


def _trivial_program(relations):
    """Always-valid fallback: V0 mirrors R0, Q0 reads V0."""
    relation = relations[0]
    variables = tuple(Variable(v)
                      for v in VARIABLE_POOL[:relation.arity])
    head_vars = tuple(v.name for v in variables)
    view = Rule(head_name="V0", head_vars=head_vars, annotation=None,
                recursive=False, iterations=None,
                body=(Atom(relation.name, variables),), assignment=None)
    query = Rule(head_name="Q0", head_vars=head_vars, annotation=None,
                 recursive=False, iterations=None,
                 body=(Atom("V0", variables),), assignment=None)
    return [("V0", view)], [query]


def _generate_ops(rng, relations, domain, max_ops):
    """Interleaved op sequence: ~40% appends, ~25% deletes, rest
    queries; at least one mutation, at least two queries, final op a
    query.  The generation-time mirror keeps deletes mostly aimed at
    live tuples (with occasional misses to exercise the no-op path)."""
    mirror = initial_mirror(relations)
    ops = []
    mutations = 0
    for _ in range(rng.randint(4, max_ops) - 1):
        roll = rng.random()
        deletable = [r for r in relations if mirror[r.name]]
        if roll < 0.40:
            ops.append(_append_op(rng, rng.choice(relations), domain,
                                  mirror))
            mutations += 1
        elif roll < 0.65 and deletable:
            ops.append(_delete_op(rng, rng.choice(deletable), domain,
                                  mirror))
            mutations += 1
        else:
            ops.append(MutationOp("query"))
    if not mutations:
        ops.insert(0, _append_op(rng, rng.choice(relations), domain,
                                 mirror))
    ops.append(MutationOp("query"))
    if sum(1 for op in ops if op.kind == "query") < 2:
        ops.insert(len(ops) // 2, MutationOp("query"))
    return ops


def _append_op(rng, relation, domain, mirror):
    count = rng.randint(1, 3)
    tuples = []
    for _ in range(count):
        if mirror[relation.name] and rng.random() < 0.25:
            # Re-append a live tuple: a no-op under set semantics, an
            # annotation rewrite (journalled as Δ−/Δ+, forcing the
            # full refresh route) when the relation is annotated.
            tuples.append(rng.choice(sorted(mirror[relation.name])))
        else:
            # ``domain + 2`` reaches past every loaded value, so some
            # appends grow the dictionary.
            tuples.append(tuple(rng.randrange(domain + 2)
                                for _ in range(relation.arity)))
    annotations = None
    if relation.annotations is not None:
        annotations = [float(rng.randint(1, 9)) for _ in tuples]
    op = MutationOp("append", relation.name, tuples, annotations)
    apply_op_to_mirror(mirror, op)
    return op


def _delete_op(rng, relation, domain, mirror):
    pool = sorted(mirror[relation.name])
    tuples = rng.sample(pool, rng.randint(1, min(2, len(pool))))
    if rng.random() < 0.3:
        # Usually absent: deleting a missing tuple must be a no-op.
        tuples.append(tuple(rng.randrange(domain + 2)
                            for _ in range(relation.arity)))
    op = MutationOp("delete", relation.name, tuples, None)
    apply_op_to_mirror(mirror, op)
    return op
