"""The package carries only what its commands call.

Every public top-level function, public class and public method under
`src/noiseimaging` must be referenced from runtime code other than its own
definition and the package `__init__`.  A name only the tests use belongs on
the test side.  The same holds for every single-underscore helper, a module
function or a method (dunders aside): a private helper only the tests call
is as dead as a public one.  References match by name alone, so the check
can miss a dead method that shares its name with a live attribute, never
the reverse.

Likewise every defaulted parameter of those functions and methods must be
passed by some runtime call: a default nothing overrides is a setting no
command sets, and belongs in the body as a constant.

And no runtime code reaches numpy's transcendental ufuncs, whose bits
depend on numpy's CPU dispatch: scalars go through `math`.  The exceptions
are the bow-tie's pixel angles (`np.arctan2`) and disk edge (`np.hypot`),
which the CPU-path tests of `test_cli_contract.py` pin by the desk bow-ties'
digest.  This check also
holds on hosts where those tests skip their legs.

numpy stays where the arrays are: the modules that work on scalars and
15-row tables name only the numpy functions their arrays need, and every
overlap and reading they see is a Python float.

The three commands and a usage error load exactly 13 modules past numpy's
own, all while the CLI is imported.  argparse, and the gettext and locale
modules its messages would load, are not among them, and a command's run
loads none.

Every package module but `traces` compiles before numpy loads, and `traces`
before `numpy.random`: memory the compiler takes after numpy has loaded is
never handed back, so a module compiled late raises every command's peak RSS.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import noiseimaging
from noiseimaging import cli, scene
from noiseimaging.config import load_config

from config_files import small_config
from referee import child, child_env

PACKAGE = Path(noiseimaging.__file__).resolve().parent
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# the entry point
EXEMPT = {("cli", "main")}


def _runtime_modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _is_public(name):
    return not name.startswith("_")


def _is_helper(name):
    """A single-underscore name: private, and not a dunder or mangled."""
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree, wanted=_is_public):
    """(qualified name, node, is_method) of the functions, classes and
    methods with wanted names, defined at module level or directly in a
    module-level public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if wanted(node.name):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef) and _is_public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and wanted(item.name):
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


def _unreferenced(wanted=_is_public):
    modules = _runtime_modules()
    refs = [(kind, name, node) for tree in modules.values()
            for kind, name, node in _references(tree)]
    missing = []
    for module, tree in modules.items():
        for qualname, definition, is_method in _definitions(tree, wanted):
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


def test_every_private_helper_is_used_by_the_runtime():
    assert _unreferenced(_is_helper) == []


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
        for qualname, definition, is_method in _definitions(tree):
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
             for qualname, _, _ in _definitions(tree)}
    # a function, a class and a method of each kind the walk must reach
    assert {"traces.measure_series", "config.RunConfig",
            "config.RunConfig.validate", "cli.main"} <= names
    helpers = {"%s.%s" % (module, qualname)
               for module, tree in _runtime_modules().items()
               for qualname, _, _ in _definitions(tree, _is_helper)}
    # module helpers, and a helper method but no dunder
    assert {"scene._lo_power", "cli._parse_args"} <= helpers
    snippet = "def _f(): pass\nclass A:\n    def _m(self): pass\n    def __init__(self): pass"
    assert [name for name, _, _ in _definitions(ast.parse(snippet), _is_helper)] == ["_f", "A._m"]
    # a keyword default, and the entry point's, which no runtime call passes
    labels = {"%s.%s(%s)" % (*key, name)
              for key, _, name, _ in _defaulted_parameters(_runtime_modules())}
    assert {"scene.overlaps(weight_map)", "cli.main(argv)"} <= labels


# numpy's exponential, logarithmic, power and trigonometric ufuncs with their
# aliases; sqrt, the arithmetic and deg2rad (one multiply) are correctly
# rounded on every path
TRANSCENDENTALS = {
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "logaddexp", "logaddexp2",
    "power", "pow", "float_power", "cbrt", "hypot",
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2",
    "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh",
    "arcsinh", "arccosh", "arctanh", "asinh", "acosh", "atanh",
}
ALLOWED_TRANSCENDENTALS = {("scene", "arctan2"), ("scene", "hypot")}


def _numpy_transcendentals(tree):
    """(name, line) of each numpy transcendental a module names."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in TRANSCENDENTALS
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            yield from ((alias.name, node.lineno) for alias in node.names
                        if alias.name in TRANSCENDENTALS)


def test_runtime_calls_no_numpy_transcendental():
    found = ["%s.py:%d np.%s" % (module, line, name)
             for module, tree in _runtime_modules().items()
             for name, line in _numpy_transcendentals(tree)
             if (module, name) not in ALLOWED_TRANSCENDENTALS]
    assert found == []


def test_the_transcendental_walk_sees_the_bowtie():
    assert {(module, name) for module, tree in _runtime_modules().items()
            for name, _ in _numpy_transcendentals(tree)} == ALLOWED_TRANSCENDENTALS


# the numpy names each scalar-side module may use: the weight-map parser, and
# the enhancement's means (their bits follow numpy's pairwise sums) and the
# letter bitmaps' pixel counts; "import" stands for an import of numpy itself
NUMPY_NAMES = {
    "cli": set(),
    "config": {"import", "loadtxt"},
    "estimate": {"import", "array", "count_nonzero"},
    "noise": set(),
}


def _numpy_names(tree):
    """The names a module takes from numpy: np.<name>, `from numpy import`
    names, and "import" for an import of numpy or a submodule."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            names.add(node.attr)
        elif isinstance(node, ast.Import):
            names.update("import" for alias in node.names
                         if alias.name.split(".")[0] == "numpy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            names.update(alias.name for alias in node.names)
    return names


def test_scalar_modules_name_only_the_numpy_their_arrays_need():
    modules = _runtime_modules()
    assert {module: _numpy_names(modules[module]) for module in NUMPY_NAMES} == NUMPY_NAMES


def test_the_numpy_walk_sees_the_arrays():
    modules = _runtime_modules()
    assert {"import", "arctan2", "count_nonzero"} <= _numpy_names(modules["scene"])
    assert {"import", "default_rng"} <= _numpy_names(modules["traces"])
    snippet = "import numpy.random\nfrom numpy import inf\nx = np.isnan(numpy.deg2rad(1.0))"
    assert _numpy_names(ast.parse(snippet)) == {"import", "inf", "isnan", "deg2rad"}


def _bowtie_overlaps(cell_size, weight_map):
    return list(scene.bowtie_overlaps([0.05, 0.3, 1.0], 0.39, 28.0, 64, 64, cell_size,
                                      weight_map))


def _disk_weights():
    yy, xx = np.mgrid[0:64, 0:64]
    return np.exp(-((xx - 32.0) ** 2 + (yy - 32.0) ** 2) / 400.0)


def test_every_overlap_path_gives_python_floats():
    bits = list(scene.bowties([0.0, 0.3], 0.39, 28.0, 64, 64))
    paths = {
        "spans": _bowtie_overlaps(1, None),
        "cells": _bowtie_overlaps(8, None),
        "weight map": _bowtie_overlaps(1, _disk_weights()),
        "unit cells": [scene.overlaps(bits[1], bits[0], 1)],
    }
    assert {name: {type(x) for pair in pairs for x in pair}
            for name, pairs in paths.items()} == dict.fromkeys(paths, {float})


def test_sweep_readings_are_python_floats():
    cfg = load_config(CONFIGS / "desk_sweep.cfg")
    readings = cli._angle_readings(cfg, cfg.resolve_r())
    assert len(readings) == len(cfg.angles_deg)
    assert {type(x) for angle, overlap, n_true in readings
            for x in (angle, overlap, *n_true.values())} == {float}


# the three commands and a usage error in a fresh interpreter; prints the
# modules it loaded last
_COMMAND_MODULES = """
import sys
from noiseimaging.cli import main
config, out = sys.argv[1:]
for command in (["calibrate", "--db", "2.2"], ["sweep"], ["alphabet", "--mask", "Z"]):
    assert main(command + ["--config", config, "--out", out]) == 0, command
try:
    main(["calibrate", "--db", "deep"])
except SystemExit as exc:
    assert exc.code == 2
else:
    raise AssertionError("a usage error did not exit")
print(" ".join(sorted(sys.modules)))
"""


def test_the_commands_load_only_the_package_json_and_gc(tmp_path):
    config = small_config(tmp_path)
    numpy_modules = set(child(
        ["-c", "import sys, numpy, numpy.random; print(' '.join(sorted(sys.modules)))"]
    ).stdout.split())
    # the commands print their summaries first
    stdout = child(["-c", _COMMAND_MODULES, str(config), str(tmp_path / "out")]).stdout
    loaded = set(stdout.splitlines()[-1].split())
    assert loaded - numpy_modules == {
        "noiseimaging", "noiseimaging.cli", "noiseimaging.config", "noiseimaging.estimate",
        "noiseimaging.noise", "noiseimaging.scene", "noiseimaging.traces",
        "json", "json.decoder", "json.encoder", "json.scanner", "_json", "gc",
    }


# one command's main in a fresh interpreter, after the CLI's import; prints
# the modules that main loaded or dropped
_RUN_MODULES = """
import sys
from noiseimaging.cli import main
before = set(sys.modules)
assert main(sys.argv[1:]) == 0
print(sorted(before ^ set(sys.modules)))
"""


# the small run, then the shipped profiles: the desk's single-pixel cells,
# whose overlaps are counted from the bow-ties' row spans, and the alphabet's
@pytest.mark.parametrize("command, config", [
    (["calibrate", "--db", "2.2"], None),
    (["sweep"], None),
    (["alphabet", "--mask", "Z"], None),
    (["sweep"], "desk_sweep.cfg"),
    (["alphabet", "--mask", "Z"], "alphabet_recognition.cfg"),
], ids=["calibrate", "sweep", "alphabet", "sweep-spans", "alphabet-shipped"])
def test_a_command_run_loads_no_module(command, config, tmp_path):
    # the config is read and the artifacts written without the codec registry
    config = small_config(tmp_path) if config is None else CONFIGS / config
    stdout = child(["-c", _RUN_MODULES, *command, "--config", str(config),
                    "--out", str(tmp_path / "out")]).stdout
    assert stdout.splitlines()[-1] == "[]"


# logs each package file compiled and each import of numpy or numpy.random,
# in order, while the CLI is imported
_COMPILE_ORDER = """
import os, sys
package = sys.argv[1]
events = []

def hook(event, args):
    if event == "compile" and isinstance(args[1], str) and os.path.dirname(args[1]) == package:
        events.append(os.path.basename(args[1]))
    elif event == "import" and args[0] in ("numpy", "numpy.random"):
        events.append(args[0])

sys.addaudithook(hook)
import noiseimaging.cli
print(" ".join(events))
"""


def test_every_module_compiles_before_numpy_loads(tmp_path):
    # -B and an empty bytecode cache: every module is compiled from source,
    # whatever __pycache__ the checkout holds
    events = child(["-B", "-c", _COMPILE_ORDER, str(PACKAGE)],
                   env=child_env(PYTHONPYCACHEPREFIX=str(tmp_path))).stdout.split()
    compiled = {name: at for at, name in enumerate(events) if name.endswith(".py")}
    assert sorted(compiled) == sorted(path.name for path in PACKAGE.glob("*.py"))
    assert len(compiled) == 7
    after_numpy = [name for name, at in compiled.items() if at > events.index("numpy")]
    assert after_numpy == ["traces.py"]
    assert compiled["traces.py"] < events.index("numpy.random")
