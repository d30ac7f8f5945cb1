"""Abstract syntax tree for the EmptyHeaded query language (paper §2.3).

The language is datalog-like: conjunctive rules with optional semiring
aggregation annotations in the head (``Name(x;w:long)``) and a limited
Kleene-star recursion marker (``Name(...)*`` or ``Name(...)*[i=5]``).
Table 1 of the paper shows the full surface syntax this AST covers.
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Aggregation operators supported by the semiring machinery.
AGGREGATE_OPS = ("SUM", "MIN", "MAX", "COUNT")


@dataclass(frozen=True)
class Variable:
    """A query variable, e.g. ``x``."""

    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Constant:
    """A literal term, e.g. ``'start'`` or ``3`` — expresses a selection."""

    value: object

    def __str__(self):
        if isinstance(self.value, str):
            return "'%s'" % self.value
        return str(self.value)


@dataclass(frozen=True)
class Atom:
    """One body atom ``Name(t1, ..., tk)``."""

    name: str
    terms: Tuple[object, ...]  # Variable | Constant

    @property
    def variables(self):
        """Names of the variable terms, in positional order."""
        return tuple(t.name for t in self.terms if isinstance(t, Variable))

    @property
    def selections(self):
        """``(position, Constant)`` pairs for the constant terms."""
        return tuple((i, t) for i, t in enumerate(self.terms)
                     if isinstance(t, Constant))

    def __str__(self):
        return "%s(%s)" % (self.name, ",".join(str(t) for t in self.terms))


# -- annotation expressions -------------------------------------------------

@dataclass(frozen=True)
class Num:
    """Numeric literal inside an annotation expression."""

    value: float


@dataclass(frozen=True)
class Ref:
    """Reference to a scalar relation (e.g. ``N`` in ``y = 1/N``)."""

    name: str


@dataclass(frozen=True)
class Agg:
    """An embedded aggregation ``<<OP(arg)>>``; ``arg`` is ``"*"`` or a
    variable name."""

    op: str
    arg: str


@dataclass(frozen=True)
class BinOp:
    """Binary arithmetic inside an annotation expression."""

    op: str  # one of + - * /
    left: object
    right: object


def expression_aggregates(expr):
    """Collect every :class:`Agg` node inside an expression tree."""
    if isinstance(expr, Agg):
        return [expr]
    if isinstance(expr, BinOp):
        return expression_aggregates(expr.left) \
            + expression_aggregates(expr.right)
    return []


def expression_refs(expr):
    """Collect every :class:`Ref` name inside an expression tree."""
    if isinstance(expr, Ref):
        return [expr.name]
    if isinstance(expr, BinOp):
        return expression_refs(expr.left) + expression_refs(expr.right)
    return []


def render_expression(expr):
    """Render an expression tree back to query syntax."""
    if isinstance(expr, Num):
        value = expr.value
        return str(int(value)) if float(value).is_integer() \
            else str(value)
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, Agg):
        return "<<%s(%s)>>" % (expr.op, expr.arg)
    if isinstance(expr, BinOp):
        return "%s%s%s" % (render_expression(expr.left), expr.op,
                           render_expression(expr.right))
    return repr(expr)


# -- rules -------------------------------------------------------------------

@dataclass(frozen=True)
class HeadAnnotation:
    """The ``;w:type`` part of a rule head."""

    var: str
    type: str


@dataclass
class Rule:
    """One rule ``Head(...) :- body ; assignment .``.

    Attributes
    ----------
    head_name / head_vars:
        Output relation name and its key variables.
    annotation:
        Optional :class:`HeadAnnotation` for the aggregated value.
    recursive:
        Whether the head carried a Kleene-star marker.
    iterations:
        Fixed iteration count from ``*[i=k]`` (``None`` = run to
        fixpoint).
    body:
        The conjunctive body atoms.
    assignment:
        Expression tree assigned to the annotation variable, or ``None``.
    delta:
        Index of the body atom that reads a seminaive round's *delta*
        (set by the recursion driver on the rule it runs each round;
        ``None`` everywhere else).  Not part of the rule's text.
    """

    head_name: str
    head_vars: Tuple[str, ...]
    annotation: Optional[HeadAnnotation]
    recursive: bool
    iterations: Optional[int]
    body: Tuple[Atom, ...]
    assignment: Optional[object]
    delta: Optional[int] = None

    @property
    def body_variables(self):
        """All distinct variable names in body order of first appearance."""
        seen = []
        for atom in self.body:
            for name in atom.variables:
                if name not in seen:
                    seen.append(name)
        return tuple(seen)

    @property
    def aggregates(self):
        """The :class:`Agg` nodes of the assignment expression."""
        if self.assignment is None:
            return []
        return expression_aggregates(self.assignment)

    @property
    def is_aggregation(self):
        """Whether the head declares an annotation column."""
        return self.annotation is not None

    def references(self, name):
        """Whether any body atom refers to relation ``name``."""
        return any(atom.name == name for atom in self.body)

    def __str__(self):
        head_inner = ",".join(self.head_vars)
        if self.annotation is not None:
            head_inner += ";%s:%s" % (self.annotation.var,
                                      self.annotation.type)
        star = ""
        if self.recursive:
            star = "*" if self.iterations is None \
                else "*[i=%d]" % self.iterations
        body = ",".join(str(a) for a in self.body)
        tail = ""
        if self.assignment is not None and self.annotation is not None:
            tail = "; %s=%s" % (self.annotation.var,
                                render_expression(self.assignment))
        return "%s(%s)%s :- %s%s." % (self.head_name, head_inner, star,
                                      body, tail)


def clone_rule(rule, **changes):
    """Copy a :class:`Rule` with some fields replaced.

    The engine uses this for derived rules: recursion flattens the
    Kleene-star marker off, and ``<<COUNT(v)>>`` extends the head with
    the counted variable for its distinct-materialization step.
    """
    values = dict(head_name=rule.head_name, head_vars=rule.head_vars,
                  annotation=rule.annotation, recursive=rule.recursive,
                  iterations=rule.iterations, body=rule.body,
                  assignment=rule.assignment, delta=rule.delta)
    values.update(changes)
    return Rule(**values)


@dataclass
class Program:
    """A sequence of rules executed in order (paper's PageRank is three)."""

    rules: list = field(default_factory=list)

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)
