"""Definitions in ``src/`` that nothing in ``src/`` names.

A walk over every module's syntax tree in the manner of the Vulture tool,
with the standard library's ``ast`` only.  It lists:

* functions, classes and methods whose name no code in ``src/`` reads, as a
  plain name or as an attribute, and no ``__all__`` exports (dunder methods
  are called implicitly and are left out);
* module-level variables that no code in ``src/`` reads;
* imports their module never reads and does not list in ``__all__``;
* parameters that no function of the same name reads in its body, so an
  override may ignore a parameter that another flavour of the method uses.

Names are matched by identifier, not resolved to their objects, so a method
counts as used when any attribute of that name is read.  The scan misses
some dead code that way, but what it lists is dead unless something outside
``src/`` reaches it, and every such entry needs a reason in ``ALLOWED``.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_CLI = "a CLI command: click calls it by the name it registers"
ALLOWED = {
    "prif.cli:cmd_run": _CLI,
    "prif.cli:cmd_plotdata": _CLI,
    "prif.cli:keytool_setup": _CLI,
    "prif.cli:keytool_group": _CLI,
    "prif.cli:keytool_register": _CLI,
    "prif.cli:keytool_revoke": _CLI,
    "prif.cli:keytool_handshake_demo": _CLI,
    "prif.sim.kernels:USE_NUMBA": "perfbench's environment report reads it",
    "prif.baselines:unseal_payload (import)":
        "perfbench's tracer patches the name in baselines",
    "prif.auth:decode_msg1":
        "the canonical-encoding reference for round 1, which the wire tests "
        "pin; decoding each received frame in the handshake measured +59% "
        "to +66% per toy handshake in a tight loop, so no simulation path "
        "calls it",
    "prif.auth:decode_msg2":
        "the canonical-encoding reference for round 2; see decode_msg1",
}


def _reads(node):
    """Identifiers read as plain names anywhere under ``node``."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def unnamed_definitions(root=SRC):
    """Every definition under ``root`` that nothing under it names, as
    ``module:qualname``, ``module:qualname(parameter)`` or
    ``module:name (import)``."""
    trees = {}
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        trees[module.removesuffix(".__init__")] = ast.parse(path.read_text())
    exports = {module: {e.value for node in tree.body if isinstance(node, ast.Assign)
                        for t in node.targets if getattr(t, "id", None) == "__all__"
                        for e in node.value.elts}
               for module, tree in trees.items()}
    named = set().union(*exports.values())
    for tree in trees.values():
        named |= _reads(tree)
        named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}

    found = set()
    body_reads = defaultdict(set)     # function name -> names its bodies read
    params = []                       # (label, function name, parameter)

    def visit(module, body, prefix):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            qualname = prefix + node.name
            if not _dunder(node.name) and node.name not in named:
                found.add(f"{module}:{qualname}")
            if isinstance(node, ast.FunctionDef):
                body_reads[node.name] |= _reads(node)
                a = node.args
                for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                    if arg is not None and arg.arg not in ("self", "cls"):
                        params.append((f"{module}:{qualname}", node.name, arg.arg))
            visit(module, node.body, qualname + ".")

    for module, tree in trees.items():
        exported, local = exports[module], _reads(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in local and name not in exported:
                        found.add(f"{module}:{name} (import)")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found |= {f"{module}:{t.id}" for t in targets
                          if isinstance(t, ast.Name) and not _dunder(t.id)
                          and t.id not in named}
        visit(module, tree.body, "")
    found |= {f"{label}({arg})" for label, name, arg in params
              if arg not in body_reads[name]}
    return found


def test_every_unnamed_definition_is_allowed_with_a_reason():
    found = unnamed_definitions()
    assert sorted(found - ALLOWED.keys()) == [], "dead code, or allow it with a reason"
    assert sorted(ALLOWED.keys() - found) == [], "stale allowlist entries"
    assert all(reason.strip() for reason in ALLOWED.values())


def test_scan_finds_each_kind_of_dead_definition(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import used\n__all__ = ['used']\n")
    (pkg / "a.py").write_text(
        "import math\n"
        "LIMIT = 3\n"
        "def used(x, unread):\n"
        "    return x\n"
        "def unused():\n"
        "    return Shape().area()\n"
        "class Shape:\n"
        "    def area(self, scale):\n"
        "        return scale\n"
        "    def perimeter(self):\n"
        "        return 0\n"
        "class Square(Shape):\n"
        "    def area(self, scale):\n"
        "        return 1\n")
    assert unnamed_definitions(tmp_path) == {
        "pkg.a:math (import)", "pkg.a:LIMIT", "pkg.a:used(unread)",
        "pkg.a:unused", "pkg.a:Shape.perimeter", "pkg.a:Square"}
