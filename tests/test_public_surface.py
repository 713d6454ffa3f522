"""Every public module-level function and class of the package, and every
public method of its classes, has a caller in the package.  A name that
only the tests reach is library surface no command uses: it belongs in
`tests/`, or it goes.

A reference to a module-level name is any use of it as an identifier, an
attribute or an imported name, in any module of `src/groupoidal` except
`__init__.py`, outside the top-level statement that defines it.  A
reference to a method is any attribute of its name there, outside the
method itself; the receiver is not resolved, so one call of a name
covers every method with that name.  A plain method whose name is also a
`self.<name> =` data attribute is reached only by a `.name(` call, as
the attribute's own uses would otherwise mask it.  Every parameter with a
default, of a public function, method or class constructor, is passed by
some call in the package: an option that no call sets is a constant.
Exempt are the names the benchmark's tracer wraps (LAYERS in
perfbench/layers.py, read as source so that nothing here imports the
benchmark), the console entry point `cli.main`, and dunder methods, which
Python calls."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "groupoidal"
LAYERS_PATH = ROOT / "perfbench" / "layers.py"


def layer_entries():
    """(module, function or Class.method) of every LAYERS entry."""
    tree = ast.parse(LAYERS_PATH.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return {(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts}
    raise AssertionError("no LAYERS table in perfbench/layers.py")


def layer_names():
    """(module, name) of every LAYERS entry; for Class.method, the class."""
    return {(module, name.split(".")[0]) for module, name in layer_entries()}


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
    exempt = layer_names() | {("cli", "main")}
    # The exemption must name a public definition, so it does not go stale.
    assert ("cli", "main") in definitions
    orphans = [f"{module}.{name}" for module, name in definitions
               if name not in uses and (module, name) not in exempt]
    assert orphans == [], ("public names with no caller in src/groupoidal: "
                           + ", ".join(orphans))


def _is_property(method):
    return any(isinstance(d, ast.Name) and d.id == "property"
               for d in method.decorator_list)


def _called(node):
    """The attribute names called as `.name(` in a node."""
    return [n.func.attr for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)]


def methods_without_callers(package=PACKAGE):
    """(module, Class.method) of each public method of a module-level
    class of the package whose name no attribute in the package uses
    outside the method itself.  A plain method (not a property) whose
    name is also a `self.<name> =` data attribute in the package needs a
    `.name(` call outside itself, as the attribute's uses do not reach
    it."""
    attributes, calls, data, methods = Counter(), Counter(), set(), []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes[node.attr] += 1
                if isinstance(node.ctx, ast.Store) and \
                        getattr(node.value, "id", None) == "self":
                    data.add(node.attr)
        calls.update(_called(tree))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if isinstance(method, ast.FunctionDef) and \
                        not method.name.startswith("_"):
                    own = sum(isinstance(node, ast.Attribute)
                              and node.attr == method.name
                              for node in ast.walk(method))
                    own_calls = _called(method).count(method.name)
                    methods.append((path.stem, cls.name, method.name,
                                    _is_property(method), own, own_calls))
    return [(module, f"{cls}.{name}")
            for module, cls, name, prop, own, own_calls in methods
            if attributes[name] == own
            or (not prop and name in data and calls[name] == own_calls)]


def test_every_public_method_has_a_caller_in_the_package():
    orphans = [f"{module}.{name}" for module, name in methods_without_callers()
               if (module, name) not in layer_entries()]
    assert orphans == [], ("public methods with no caller in src/groupoidal: "
                           + ", ".join(orphans))


def _calls_by_name(package=PACKAGE):
    """Callee name -> the calls of that name in the package, a name or an
    attribute; the receiver is not resolved."""
    calls = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or \
                    getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _defaulted(function, bound):
    """(position or None, name) of each parameter with a default; the
    position counts the positional arguments of a call, after the first
    `bound` parameters (self or cls), and is None for keyword-only ones."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(i - bound, p.arg) for i, p in enumerate(positional)
             if i >= first]
            + [(None, p.arg) for p, default in zip(args.kwonlyargs,
                                                   args.kw_defaults)
               if default is not None])


def _passes(call, position, name):
    """Whether the call passes the parameter: by position, by keyword, or
    possibly through * or **."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, name) for k in call.keywords)
            or (position is not None and len(call.args) > position))


def _signatures(package=PACKAGE):
    """(module, what, function node, callee names, bound) of each public
    function, public method and constructor of a public class.  what is
    `name`, `Class.method` or `Class`; a constructor is called by the
    class name or by `.__init__(` (super().__init__)."""
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                yield path.stem, node.name, node, (node.name,), 0
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if not isinstance(method, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in method.decorator_list)
                    if method.name == "__init__":
                        yield (path.stem, node.name, method,
                               (node.name, "__init__"), 1)
                    elif not method.name.startswith("_"):
                        yield (path.stem, f"{node.name}.{method.name}",
                               method, (method.name,), 0 if static else 1)


def defaults_never_passed(package=PACKAGE):
    """(module, what, parameter) of each parameter with a default that no
    call in the package passes, outside the definition itself."""
    calls = _calls_by_name(package)
    unpassed = []
    for module, what, function, names, bound in _signatures(package):
        own = {id(n) for n in ast.walk(function)}
        callers = [c for name in names for c in calls.get(name, ())
                   if id(c) not in own]
        unpassed += [(module, what, parameter)
                     for position, parameter in _defaulted(function, bound)
                     if not any(_passes(c, position, parameter)
                                for c in callers)]
    return unpassed


def test_every_default_is_passed_by_a_call_in_the_package():
    exempt = layer_entries() | {("cli", "main")}
    constants = [f"{module}.{what}({parameter})"
                 for module, what, parameter in defaults_never_passed()
                 if (module, what) not in exempt]
    assert constants == [], ("parameters no call in src/groupoidal passes: "
                             + ", ".join(constants))


def composite_table_reads(package=PACKAGE):
    """(module, line) of each read of a groupoid's `compose` table outside
    groupoid_core.  `x.compose` counts unless it is called, as the
    AlgebraMap.compose method is; a name `compose` counts outside
    specfiles, and there unless it is only passed to the FiniteGroupoid
    constructor that the parser builds."""
    reads = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "groupoid_core":
            continue
        tree = ast.parse(path.read_text())
        called = {id(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
        built = {id(arg) for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "FiniteGroupoid"
                 for arg in node.args}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "compose" \
                    and id(node) not in called:
                reads.append((path.stem, node.lineno))
            elif isinstance(node, ast.Name) and node.id == "compose" and not (
                    path.stem == "specfiles"
                    and (isinstance(node.ctx, ast.Store) or id(node) in built)):
                reads.append((path.stem, node.lineno))
    return reads


def test_only_groupoid_core_reads_the_composite_table():
    # Every other reader takes the composites from the point-factored
    # rows (FiniteGroupoid.rows and composite); the parser builds the raw
    # table and hands it over.
    assert composite_table_reads() == []
