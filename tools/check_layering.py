#!/usr/bin/env python
"""Import-layering check for the four-layer query pipeline.

The pipeline's layer boundaries (see ``docs/architecture.md``) are:

  frontend   repro.query    — parse text into ASTs; knows nothing of
                              the optimizer or engine
  optimizer  repro.lir      — logical IR + pass pipeline; may use
                              query/ghd/sets/storage/obs, never engine
  planning + execution
             repro.engine   — physical plans, kernels, caches

This script fails (exit 1) when a forbidden import edge exists:

  * any module under ``repro.lir`` importing ``repro.engine``
  * any module under ``repro.query`` importing ``repro.lir``
    (or ``repro.engine``, which is implied by the same boundary)

and, inside the engine, when the default engine and its oracle stop
being independent: the block kernels (``engine/fused.py``, lowered by
``engine/codegen.py``) are differentially tested against the
interpreter (``engine/generic_join.py``), which proves something only
while neither evaluates bags with the other's code.  So

  * ``fused`` and ``codegen`` may import from ``generic_join`` only the
    result types (``BagResult``, ``empty_bag_result``)
  * ``generic_join`` imports nothing from ``fused`` or ``codegen``
  * ``executor``, the default engine and the Yannakakis driver both
    engines run, takes from ``generic_join`` the result types and the
    input wrapper (``BagInput``) only
  * no ``repro.engine`` module but ``oracle`` itself imports
    ``repro.engine.oracle`` (``Database`` constructs it), and no module
    but ``oracle`` takes ``evaluate_bag``: the interpreter is entered
    through one door

and the recursion driver (``engine/recursion.py``) imports nothing
from ``executor``: it reaches the engine only through the executor it
is handed, so a round is an ordinary ``execute`` call whichever engine
runs it.

Detection is by AST walk, so it sees ``import x``, ``from x import y``,
and relative imports, including those nested inside functions.

A third rule is checked by running, not reading: the **import budget**.
A cold ``repro query`` process pays for every module ``import
repro.cli`` loads, so a fresh interpreter imports it and fails when
``sys.modules`` then holds anything in :data:`IMPORT_BUDGET` — an LP
library, ``multiprocessing``, the daemon, the fuzzer, the telemetry
exporters.  Code that needs one imports it where it is used.

Usage: ``python tools/check_layering.py [src_root]``
"""

import ast
import json
import os
import subprocess
import sys

#: lower layer -> modules it must never import (prefix match).
FORBIDDEN = {
    "repro.lir": ("repro.engine",),
    "repro.query": ("repro.lir", "repro.engine"),
}


#: Modules (and everything under them) ``import repro.cli`` must not load.
IMPORT_BUDGET = (
    "scipy", "multiprocessing", "concurrent.futures", "asyncio",
    "repro.serve", "repro.fuzz",
    "repro.obs.telemetry", "repro.obs.flight", "repro.obs.openmetrics",
    "repro.obs.export",
)

_RESULT_TYPES = frozenset(["BagResult", "empty_bag_result"])

#: importing module -> {imported module: the only names it may take}.
ALLOWED_NAMES = {
    "repro.engine.fused": {"repro.engine.generic_join": _RESULT_TYPES},
    "repro.engine.codegen": {"repro.engine.generic_join": _RESULT_TYPES},
    "repro.engine.generic_join": {"repro.engine.fused": frozenset(),
                                  "repro.engine.codegen": frozenset()},
    "repro.engine.executor": {"repro.engine.generic_join": _RESULT_TYPES
                              | {"BagInput"}},
    "repro.engine.recursion": {"repro.engine.executor": frozenset()},
}

#: Why an importing module's names are restricted, where the reason is
#: not the oracle's independence.
NAME_REASONS = {
    "repro.engine.recursion": "one executor door: the driver reaches "
                              "the engine through the executor it is "
                              "handed",
}

#: The interpreted executor, and the one name of the interpreter only
#: it may take.
ORACLE = "repro.engine.oracle"
ORACLE_ENTRY = "evaluate_bag"


def module_name(path, src_root):
    """Dotted module name of ``path`` relative to ``src_root``."""
    relative = os.path.relpath(path, src_root)
    parts = relative[:-len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def resolve_relative(module, level, target):
    """Absolute module a ``from ..x import y`` refers to.

    ``level`` is the number of leading dots; ``target`` the module text
    after them (may be empty for ``from . import y``).
    """
    base = module.split(".")
    # Relative imports resolve against the package: for a module file,
    # one dot strips the module name itself.
    base = base[:len(base) - level] if level <= len(base) else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


def imported_names(path, module):
    """``(absolute module, name)`` for everything ``module`` (at
    ``path``) imports; ``name`` is ``None`` for ``import x``."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    # a package's own dot is the package: resolve from inside it
    anchor = module + ".__init__" \
        if os.path.basename(path) == "__init__.py" else module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = resolve_relative(anchor, node.level,
                                      node.module or "") \
                if node.level else node.module
            if source:
                found.extend((source, alias.name) for alias in node.names)
    return found


def imported_modules(path, module):
    """Every absolute module name ``module`` (at ``path``) imports."""
    return [source for source, _ in imported_names(path, module)]


def name_violations(path, module):
    """Imports of ``module`` that take more than :data:`ALLOWED_NAMES`
    grants: a name outside the allowed set, or the whole module
    (``import x`` / ``from package import x``)."""
    violations = []
    for target, allowed in ALLOWED_NAMES.get(module, {}).items():
        for source, name in imported_names(path, module):
            whole = (source == target and name is None) \
                or "%s.%s" % (source, name) == target
            if whole or (source == target and name not in allowed):
                violations.append(
                    "%s imports %s from %s (%s: only %s allowed)"
                    % (module, "the module" if whole else name, target,
                       NAME_REASONS.get(module, "oracle independence"),
                       ", ".join(sorted(allowed)) or "nothing"))
    return violations


def oracle_violations(path, module):
    """Imports of ``module`` that reach the oracle by another door: an
    engine module importing :data:`ORACLE`, or any module but the
    oracle taking :data:`ORACLE_ENTRY` (modules :data:`ALLOWED_NAMES`
    restricts on ``generic_join`` are reported there)."""
    if module == ORACLE:
        return []
    in_engine = module == "repro.engine" \
        or module.startswith("repro.engine.")
    restricted = "repro.engine.generic_join" in ALLOWED_NAMES.get(module,
                                                                  {})
    violations = []
    for source, name in imported_names(path, module):
        if in_engine and ORACLE in (source, "%s.%s" % (source, name)):
            violations.append(
                "%s imports %s (one oracle door: no engine module "
                "imports the oracle)" % (module, ORACLE))
        elif name == ORACLE_ENTRY and not restricted and source in (
                "repro.engine", "repro.engine.generic_join"):
            violations.append(
                "%s imports %s (one oracle door: only %s takes it)"
                % (module, ORACLE_ENTRY, ORACLE))
    return violations


def check(src_root):
    """Return a list of violation strings for the tree at ``src_root``."""
    violations = []
    for directory, _, files in os.walk(src_root):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            module = module_name(path, src_root)
            violations.extend(name_violations(path, module))
            violations.extend(oracle_violations(path, module))
            rules = [banned for layer, banned in FORBIDDEN.items()
                     if module == layer or module.startswith(layer + ".")]
            if not rules:
                continue
            banned = tuple(b for group in rules for b in group)
            for imported in imported_modules(path, module):
                for prefix in banned:
                    if imported == prefix \
                            or imported.startswith(prefix + "."):
                        violations.append(
                            "%s imports %s (forbidden: %s may not "
                            "depend on %s)"
                            % (module, imported,
                               module.split(".")[0] + "."
                               + module.split(".")[1], prefix))
    return violations


def import_budget_violations(src_root, entry="repro.cli",
                             banned=IMPORT_BUDGET):
    """Violation strings for ``banned`` modules that a fresh
    interpreter holds after ``import entry`` from ``src_root``."""
    env = dict(os.environ, PYTHONPATH=src_root)
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, %s; print(json.dumps(sorted(sys.modules)))"
         % entry],
        capture_output=True, text=True, env=env, timeout=120)
    if done.returncode != 0:
        return ["import budget: `import %s` failed: %s"
                % (entry, (done.stderr.strip().splitlines() or ["?"])[-1])]
    loaded = json.loads(done.stdout)
    return ["import %s loads %s (import budget: a cold `repro query` "
            "must not pay for %s)" % (entry, module, prefix)
            for module in loaded for prefix in banned
            if module == prefix or module.startswith(prefix + ".")]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    src_root = argv[0] if argv else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    violations = check(src_root) + import_budget_violations(src_root)
    if violations:
        print("layering violations:")
        for violation in violations:
            print("  " + violation)
        return 1
    print("layering OK: repro.lir does not import repro.engine; "
          "repro.query does not import repro.lir; block kernels and "
          "interpreter share result types only; only the oracle imports "
          "evaluate_bag and no engine module imports the oracle; the "
          "recursion driver imports nothing from the executor; import "
          "repro.cli stays inside its import budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
