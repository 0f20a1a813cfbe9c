"""Rules on the shape of the source that no behavioural test can see."""

import ast
import pathlib

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
