"""Every public module-level function and class of the package has a
caller in the package.  A name that only the tests reach is library
surface no command uses: it belongs in `tests/`, or it goes.

A reference is any use of the name as an identifier, an attribute or an
imported name, in any module of `src/groupoidal` except `__init__.py`,
outside the top-level statement that defines it.  Exempt are the names
the benchmark's tracer wraps (LAYERS in perfbench/layers.py, read as
source so that nothing here imports the benchmark), the console entry
point `cli.main`, and the documented entry points in ALLOWED."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "groupoidal"
LAYERS_PATH = ROOT / "perfbench" / "layers.py"

# (module, name): why it stays without a caller in the package.  The CLI
# reads catalog entries through specfiles; the catalog module is the
# library's way to list and load them (see the README's CLI section).
ALLOWED = {("catalog", name): "lists or loads the shipped catalog"
           for name in ("action_names", "groupoid_names", "semigroup_names",
                        "pair_names", "load", "load_action", "load_groupoid",
                        "load_semigroup", "load_pair")}


def layer_names():
    """(module, name) of every LAYERS entry; for Class.method, the class."""
    tree = ast.parse(LAYERS_PATH.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return {(entry.elts[0].value, entry.elts[1].value.split(".")[0])
                    for entry in node.value.elts}
    raise AssertionError("no LAYERS table in perfbench/layers.py")


def _bound_names(function):
    """The parameters and assigned names of a function or lambda."""
    args = function.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a)
    names.update(n.id for n in ast.walk(function)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return names


def _identifiers(node, modules, shadowed=frozenset()):
    """The package names a node refers to: names read where no local
    binding shadows them, `module.name` attributes and imported names."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        shadowed = shadowed | _bound_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in shadowed:
            yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id in modules:
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (alias.name for alias in node.names)
    for child in ast.iter_child_nodes(node):
        yield from _identifiers(child, modules, shadowed)


def definitions_and_uses(package=PACKAGE):
    """(module, name) of each public module-level function or class of the
    package, and the names that the package's top-level statements use,
    each outside its own definition."""
    definitions, uses = [], set()
    modules = {path.stem for path in package.glob("*.py")}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text()).body:
            defined = None
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                defined = statement.name
                if not defined.startswith("_"):
                    definitions.append((path.stem, defined))
            # A name used inside its own definition is not a caller.
            uses.update(name for name in _identifiers(statement, modules)
                        if name != defined)
    return definitions, uses


def test_every_public_name_has_a_caller_in_the_package():
    definitions, uses = definitions_and_uses()
    exempt = layer_names() | {("cli", "main")} | set(ALLOWED)
    # An exemption must name a public definition, so none goes stale.
    assert set(ALLOWED) | {("cli", "main")} <= set(definitions)
    orphans = [f"{module}.{name}" for module, name in definitions
               if name not in uses and (module, name) not in exempt]
    assert orphans == [], ("public names with no caller in src/groupoidal: "
                           + ", ".join(orphans))
