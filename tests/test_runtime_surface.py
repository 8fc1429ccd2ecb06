"""The package carries only what its commands call.

Every public top-level function, public class and public method under
`src/noiseimaging` must be referenced from runtime code other than its own
definition and the package `__init__`.  A name only the tests use belongs on
the test side.  References match by name alone, so the check can miss a
dead method that shares its name with a live attribute, never the reverse.

Likewise every defaulted parameter of those functions and methods must be
passed by some runtime call: a default nothing overrides is a setting no
command sets, and belongs in the body as a constant.
"""

import ast
from pathlib import Path

import noiseimaging

PACKAGE = Path(noiseimaging.__file__).resolve().parent

# the entry point, and the config writer that pairs with load_config as the
# file format
EXEMPT = {("cli", "main"), ("config", "save_config")}


def _runtime_modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _public_definitions(tree):
    """(qualified name, node, is_method) of the public functions, classes and
    methods defined at module level or directly in a module-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield "%s.%s" % (node.name, item.name), item, True


def _references(tree):
    """(kind, name, node) of every loaded name, attribute and imported alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield "name", node.id, node
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield "attribute", node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield "import", alias.name, node


def _unreferenced():
    modules = _runtime_modules()
    refs = [(kind, name, node) for tree in modules.values()
            for kind, name, node in _references(tree)]
    missing = []
    for module, tree in modules.items():
        for qualname, definition, is_method in _public_definitions(tree):
            if (module, qualname) in EXEMPT:
                continue
            # a method is reached through an object, never as a bare name
            kinds = {"attribute"} if is_method else {"name", "attribute", "import"}
            inside = {id(node) for node in ast.walk(definition)}
            if not any(kind in kinds and name == definition.name and id(node) not in inside
                       for kind, name, node in refs):
                missing.append("%s.%s" % (module, qualname))
    return missing


def test_every_public_name_is_used_by_the_runtime():
    assert _unreferenced() == []


def _defaulted(definition, is_method):
    """(name, positional slot or None) of each defaulted parameter; the slot
    counts the positional arguments a call passes, past a method's self."""
    args = definition.args
    positional = args.posonlyargs + args.args
    skip = is_method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in definition.decorator_list)
    first = len(positional) - len(args.defaults)
    for slot, arg in enumerate(positional[first:], start=first - skip):
        yield arg.arg, slot
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _defaulted_parameters(modules):
    """((module, qualname), definition, parameter, slot) of each defaulted
    parameter of a public function or method."""
    for module, tree in modules.items():
        for qualname, definition, is_method in _public_definitions(tree):
            if isinstance(definition, ast.FunctionDef):
                for name, slot in _defaulted(definition, is_method):
                    yield (module, qualname), definition, name, slot


def _passes(call, name, slot):
    """Whether a call passes a parameter, by keyword, by position, or
    through *args or **kwargs."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return slot is not None and (len(call.args) > slot or any(
        isinstance(a, ast.Starred) for a in call.args))


def _callee(call):
    """The name a call gives its function, bare or as an attribute."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _never_passed():
    modules = _runtime_modules()
    calls = [node for tree in modules.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    missing = []
    for key, definition, name, slot in _defaulted_parameters(modules):
        if key in EXEMPT:
            continue
        inside = {id(node) for node in ast.walk(definition)}
        if not any(_passes(call, name, slot) for call in calls
                   if _callee(call) == definition.name and id(call) not in inside):
            missing.append("%s.%s(%s)" % (*key, name))
    return missing


def test_every_defaulted_parameter_is_passed_by_the_runtime():
    assert _never_passed() == []


def test_the_walk_sees_the_package():
    names = {"%s.%s" % (module, qualname)
             for module, tree in _runtime_modules().items()
             for qualname, _, _ in _public_definitions(tree)}
    # a function, a class and a method of each kind the walk must reach
    assert {"traces.measure_series", "estimate.NoiseCurve",
            "estimate.NoiseCurve.slope", "cli.main"} <= names
    # a keyword default, and the entry point's, which no runtime call passes
    labels = {"%s.%s(%s)" % (*key, name)
              for key, _, name, _ in _defaulted_parameters(_runtime_modules())}
    assert {"scene.overlaps(weight_map)", "cli.main(argv)"} <= labels
