"""The Yannakakis driver both engines share, checked against the
brute-force reference.

The default engine (:class:`~repro.engine.executor.RuleExecutor`) and
the interpreted oracle (:class:`~repro.engine.oracle.OracleExecutor`)
walk the GHD with one bottom-up loop and differ only in how a bag gets
its inputs and how it is evaluated.  Each case below drives one rule of
that loop — a disconnected child folding in as a scalar factor, an
empty one killing its parent, a materialized cross product re-entering
in the top-down pass, annotated pass-ups, identical bags served from
the memo — and runs under both engines, then under both engines with
each ablation switch flipped on its own.
"""

from dataclasses import fields

import pytest

from repro import Ablation, Database
from repro.ablation import LEVELS
from repro.engine.oracle import OracleExecutor
from repro.query.parser import parse
from tests.reference import evaluate_program

ENGINES = ("compiled", "interpreted")

#: Base relations: ``name -> (tuples, {tuple: annotation} or None)``.
#: ``Z`` is empty; ``B`` shares no value with ``A``.
RELATIONS = {
    "A": ([(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (3, 0)], None),
    "B": ([(5, 6), (6, 7), (7, 5)], None),
    "Z": ([], None),
    "W": ([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
          {(0, 1): 2.0, (0, 2): 3.0, (1, 3): 5.0, (2, 3): 7.0,
           (3, 4): 11.0}),
}

#: One rule per driver behaviour.
CASES = {
    "scalar-factor":
        "Q(;w:long) :- A(x,y),B(z,u); w=<<COUNT(*)>>.",
    "keyed-scalar-factor":
        "Q(x;w:long) :- A(x,y),B(z,u); w=<<COUNT(*)>>.",
    "dead-bag":
        "Q(;w:long) :- A(x,y),Z(z,u); w=<<COUNT(*)>>.",
    "dead-bag-materialized":
        "Q(x,y) :- A(x,y),Z(z,u).",
    "cross-product-top-down":
        "Q(x,y,z) :- A(x,y),B(z,u).",
    "two-hop-top-down":
        "Q(x,y) :- A(x,z),A(z,y).",
    "three-hop-chain":
        "Q(a,d) :- A(a,b),A(b,c),A(c,d).",
    "annotated-pass-up":
        "Q(x;w:float) :- W(x,y),W(y,z); w=<<SUM(z)>>.",
    "identical-bags":
        "Q(;w:long) :- A(x,y),A(y,z),A(x,z),A(x,a),A(a,b),A(b,c),"
        "A(a,c); w=<<COUNT(*)>>.",
    "lollipop":
        "Q(;w:long) :- A(x,y),A(y,z),A(x,z),A(x,a); w=<<COUNT(*)>>.",
    "count-distinct":
        "Q(;w:long) :- A(x,y),A(y,z); w=<<COUNT(x)>>.",
}


def _flips():
    """Every single-switch ablation: each boolean switch off, each
    non-default layout level."""
    default = Ablation()
    flips = {name: {name: not getattr(default, name)}
             for name in (f.name for f in fields(Ablation))
             if name != "layout_level"}
    for level in LEVELS:
        if level != default.layout_level:
            flips["layout_level=" + level] = {"layout_level": level}
    return flips


FLIPS = _flips()


def database(engine, **switches):
    db = Database(execution_mode=engine, **switches)
    for name, (tuples, annotations) in RELATIONS.items():
        if annotations is None:
            db.add_relation(name, tuples, arity=2)
        else:
            db.add_encoded(name, tuples,
                           annotations=[annotations[t] for t in tuples])
    return db


def expected(text):
    return evaluate_program(RELATIONS, list(parse(text).rules))["Q"]


def observed(db, text, kind):
    """The engine's answer in the reference's ``(kind, value)`` terms."""
    result = db.query(text)
    if kind == "scalar":
        return kind, result.scalar
    if kind == "map":
        return kind, {(k if isinstance(k, tuple) else (k,)): v
                      for k, v in result.to_dict().items()} \
            if result.count else {}
    return kind, frozenset(result.tuples())


def assert_matches(db, text):
    kind, want = expected(text)
    got_kind, got = observed(db, text, kind)
    assert got_kind == kind
    if kind == "map":
        assert set(got) == set(want), text
        for key, value in want.items():
            assert got[key] == pytest.approx(value), (text, key)
    else:
        assert got == pytest.approx(want) if kind == "scalar" \
            else got == want, text


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_driver_rule_under_both_engines(case, engine):
    db = database(engine)
    assert isinstance(db._executor, OracleExecutor) \
        == (engine == "interpreted")
    assert_matches(db, CASES[case])


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("flip", sorted(FLIPS))
def test_each_switch_under_both_engines(flip, engine):
    """One switch off at a time changes no answer of either engine."""
    db = database(engine, **FLIPS[flip])
    for text in CASES.values():
        assert_matches(db, text)
