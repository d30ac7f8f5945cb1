"""Frontend lowering: AST rules → logical IR (paper Appendix B.1).

``build_rule`` resolves every body atom against the catalog and applies
the two "within a node" normalizations the paper pushes ahead of any
join work:

* constant terms become equality selections, encoded through the
  column's dictionary (an absent constant makes the atom statically
  empty);
* repeated variables become column-equality filters, so every remaining
  atom ranges over distinct variables.

The result is a :class:`~repro.lir.ir.LogicalRule` ready for the pass
pipeline.  Validation errors (unknown relations, arity mismatches) are
raised here; head-variable and aggregate-arity problems are recorded on
the IR and enforced by the executor *after* its empty-guard
short-circuit, matching the engine's historical behavior.
"""

import numpy as np

from ..errors import ExecutionError, UnknownRelationError
from ..query.ast import Constant
from .ir import LogicalAtom, LogicalRule


def encode_constant(relation, position, value):
    """Encode a selection constant through the column's dictionary.

    Returns ``None`` when the value is absent (the selection is empty).
    """
    if relation.dictionaries is not None:
        dictionary = relation.dictionaries[position]
        try:
            return dictionary.lookup(value)
        except KeyError:
            return None
    if isinstance(value, (int, np.integer)) and 0 <= value < 2 ** 32:
        return int(value)
    return None


def normalize_atom(atom, catalog):
    """Resolve and reduce one atom to a :class:`LogicalAtom`.

    Constant terms become equality filters (the "pushing selections
    within a node" of Appendix B.1); repeated variables become
    column-equality filters.  The derived relation materializes lazily
    on first :attr:`~repro.lir.ir.LogicalAtom.relation` access.
    """
    relation = catalog.get(atom.name)
    if relation is None:
        raise UnknownRelationError(atom.name, catalog.keys())
    if len(atom.terms) != relation.arity:
        raise ExecutionError(
            "atom %s has %d terms but relation arity is %d"
            % (atom, len(atom.terms), relation.arity))
    filters = tuple((position, encode_constant(relation, position,
                                               constant.value))
                    for position, constant in atom.selections)
    keep_columns = []
    equalities = []
    seen_vars = {}
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            continue
        if term.name in seen_vars:
            equalities.append((position, seen_vars[term.name]))
        else:
            seen_vars[term.name] = position
            keep_columns.append((term.name, position))
    variables = tuple(name for name, _ in keep_columns)
    keep = tuple(position for _, position in keep_columns)
    return LogicalAtom(atom.name, relation, variables, filters=filters,
                       keep=keep, equalities=tuple(equalities),
                       display=str(atom))


def build_rule(rule, catalog, trace=None):
    """Lower one AST rule to a :class:`~repro.lir.ir.LogicalRule`.

    Atoms without variables (fully-constant or fully-collapsed) become
    *guard atoms*: they contribute no join attributes, only an emptiness
    check.
    """
    normalized = [normalize_atom(atom, catalog) for atom in rule.body]
    atoms = [a for a in normalized if a.variables]
    guards = [a for a in normalized if not a.variables]
    delta_vars = () if rule.delta is None \
        else normalized[rule.delta].variables
    logical = LogicalRule(rule, atoms, guards, trace=trace,
                          delta_vars=delta_vars)
    if trace is not None:
        selections = sum(1 for a in normalized if a.is_selection)
        trace.record(
            "build", True,
            ["%d atom(s), %d guard(s), %d selection(s)"
             % (len(atoms), len(guards), selections),
             "body: %s" % ",".join(str(a) for a in normalized)])
    return logical
