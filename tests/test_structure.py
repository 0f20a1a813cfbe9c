"""Rules on the shape of the source that no behavioural test can see."""

import ast
import dataclasses
import importlib
import pathlib
import pkgutil

import numpy as np

import tomoforge


def _frexp_sites():
    """'module.function' of every reference to ``frexp`` (a call, an attribute or an import) in the package."""
    sites = []
    for path in sorted(pathlib.Path(tomoforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(node.name, node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if "frexp" in (getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None)):
                inner = [name for name, lo, hi in scopes if lo <= node.lineno <= hi]
                sites.append(f"{path.stem}.{inner[-1] if inner else '<module>'}")
    return sites


def test_only_the_power_of_two_rule_reads_a_binary_exponent():
    # every scaling near the float limit goes through errors._pow2, so no site keeps its own exponent rule
    assert _frexp_sites() == ["errors._pow2"]


def _modules():
    """The package and every module in it."""
    return [tomoforge, *(importlib.import_module(f"tomoforge.{m.name}") for m in pkgutil.iter_modules(tomoforge.__path__))]


def _module_arrays():
    """{'module.name', or 'module.name[key]' for an entry of a dict, tuple or list: array} of every numpy array
    bound at module level in the package, directly or inside a module-level dict, tuple or list."""
    found = {}
    for module in _modules():
        for name, value in vars(module).items():
            if isinstance(value, dict):
                entries = [(f"[{k!r}]", v) for k, v in value.items()]
            elif isinstance(value, (tuple, list)):
                entries = [(f"[{k}]", v) for k, v in enumerate(value)]
            else:
                entries = [("", value)]
            for key, a in entries:
                if isinstance(a, np.ndarray):
                    found[f"{module.__name__}.{name}{key}"] = a
    return found


def test_every_module_table_is_read_only():
    # computed once at import, then frozen: no caller can change what the next call reads
    tables = _module_arrays()
    for reached in ("tomoforge.model._ROWS", "tomoforge.model._PAULI['X']", "tomoforge.model._UPPER[0]",
                    "tomoforge.search._BY_SIZE[9]", "tomoforge.lsq._PAULI_BASIS"):
        assert reached in tables
    assert [name for name, a in tables.items() if a.flags.writeable] == []


def _value_compared_records():
    """{'module.Class': the fields its equality compares} of every dataclass in the package with its own ``__eq__``."""
    found = {}
    for module in _modules():
        for value in vars(module).values():
            if dataclasses.is_dataclass(value) and isinstance(value, type) and "__eq__" in vars(value):
                found[f"{value.__module__}.{value.__qualname__}"] = tuple(
                    f.name for f in dataclasses.fields(value) if f.compare)
    return found


def test_only_records_a_value_identifies_compare_by_value():
    # a generated __eq__ over an array field can only raise, so a record that holds arrays declares eq=False and
    # compares and hashes by identity; a reading is its values, a set report is its ids (its spectrum follows)
    assert _value_compared_records() == {
        "tomoforge.model.Reading": ("readout", "peak", "value"),
        "tomoforge.search.SetReport": ("ids",),
    }


def _loaded_names():
    """Every name the package modules (``__init__`` aside) and the demos load: a bare name, or an attribute of an
    imported tomoforge module such as ``tomoio.read_density``. ``result.chi2`` is a field, not a use of ``chi2``."""
    package = pathlib.Path(tomoforge.__file__).parent
    submodules = {m.name for m in pkgutil.iter_modules(tomoforge.__path__)}
    loaded = set()
    for path in [*package.glob("*.py"), *(package.parents[1] / "demos").glob("*.py")]:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # the names this file binds to a tomoforge module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {a.asname or a.name for a in node.names if a.name.split(".")[0] == "tomoforge"}
            elif isinstance(node, ast.ImportFrom) and node.module == ("tomoforge" if node.level == 0 else None):
                modules |= {a.asname or a.name for a in node.names if a.name in submodules}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                loaded.add(node.attr)
    return loaded


# The public names nothing in the package or the demos loads, each with the reason it stays public.
PUBLIC_WITHOUT_A_CALLER = {
    "chi2": "the fit statistic at any parameters; reconstruct reports it for its own solution",
    "matrix_rank": "the benchmark's cli_files gate calls tf.matrix_rank, and the tests use it as the rank oracle "
                   "of the set-cover search",
}


def test_every_public_name_has_a_caller_or_a_reason():
    # a name joins the surface with a caller or a stated reason; a listed name must still be public and uncalled
    loaded = _loaded_names()
    assert "read_density" in loaded and "reconstruct" in loaded  # via tomoio. and as a bare name
    assert sorted(n for n in tomoforge.__all__ if n not in loaded) == sorted(PUBLIC_WITHOUT_A_CALLER)
