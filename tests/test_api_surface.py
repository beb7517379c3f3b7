"""Every top-level definition in critmode is reachable from an entry point.

The roots are the package exports, the command line (``cli.main`` and
``cli.build_parser``), the functions the benchmark tracer wraps (``TRACED``,
read from the source of perfbench/tracing.py) and the oracles below.  The
names used in a reached definition's body, resolved through its module's
definitions and ``from .x import y`` imports, are reached in turn; so are
the names used by module-level code, which always runs.
"""

import ast
from pathlib import Path

import critmode

SRC = Path(critmode.__file__).resolve().parent
TRACING = SRC.parents[1] / "perfbench" / "tracing.py"

# (module, name): why it stays without a caller in src/
ORACLES = {
    ("linalg", "char_poly"): "acceptance fixtures' characteristic polynomial",
    ("linalg", "poly_from_roots"): "acceptance fixtures' polynomial oracle",
    ("perturb", "j1_coefficient"): "determinant route, J1(omega) = -xi",
    ("dynamics", "energy"): "dissipation oracle of test_energy_dissipation",
}


def _namespace(module, tree, defs):
    """name -> (module, name) it refers to; ("module", m) for a module m."""
    names = {name: (mod, name) for mod, name in defs if mod == module}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:  # module None: from . import design
                names[alias.asname or alias.name] = (node.module or "module",
                                                     alias.name)
    return names


def _used(nodes, names):
    """The (module, name) pairs that the names used in nodes refer to."""
    found = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name) and node.id in names:
            found.add(names[node.id])
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and names.get(node.value.id, ("",))[0] == "module"):
            found.add((names[node.value.id][1], node.attr))
    return found


def unreached(sources, roots):
    """Top-level (module, name) definitions of sources (module -> source
    text) that neither the roots nor module-level code reach."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defs = {(mod, node.name): node for mod, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names = {mod: _namespace(mod, tree, defs) for mod, tree in trees.items()}
    todo = set(roots)
    for mod, tree in trees.items():
        loose = [node for node in tree.body if node not in defs.values()]
        todo |= _used(loose, names[mod])
    seen = set()
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            if key in defs:
                todo |= _used([defs[key]], names[key[0]])
            elif key[1] in names.get(key[0], {}):  # imported, not defined
                todo.add(names[key[0]][key[1]])
    return set(defs) - seen


def _traced():
    """TRACED of perfbench/tracing.py, read from its source, not imported."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["TRACED"]):
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracing.py defines no TRACED")


def test_every_definition_is_reachable():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in SRC.glob("*.py")}
    exports = _namespace("__init__", ast.parse(sources["__init__"]), set())
    roots = set(exports.values()) | {("cli", "main"), ("cli", "build_parser")}
    assert unreached(sources, roots | _traced() | set(ORACLES)) == set()


def test_check_reports_a_dead_function():
    # the check can fail: dead() is defined and only calls live code
    sources = {
        "m": "from .n import helper\n"
             "def root():\n    return helper()\n"
             "def dead():\n    return root()\n"
             "CONSTANT = root\n",
        "n": "def helper():\n    return 1\n",
    }
    assert unreached(sources, set()) == {("m", "dead")}
