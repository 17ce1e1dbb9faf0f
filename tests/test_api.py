"""Checks on the package's public surface and on its optional parameters."""

import ast
from pathlib import Path

import nlds

SRC = Path(nlds.__file__).resolve().parent
CALLERS = (SRC.parent, SRC.parent.parent / "perfbench")   # src/, perfbench/

# (module, function, parameter) -> why no caller in src/ or perfbench/ sets it
UNSET_BY_DESIGN = {
    ("opspec", "growth_rate", "u0"):
        "start vector of the time-stepping cross-check against the Noda "
        "bound; the reference run starts from the ones vector",
}


def optional_parameters():
    """(module, function, parameter, position) of every parameter with a
    default in src/nlds; position is None for keyword-only parameters."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            for i in range(first, len(positional)):
                yield path.stem, node.name, positional[i].arg, i
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield path.stem, node.name, arg.arg, None


def calls_by_name():
    """Function name -> every call to that name in src/ and perfbench/."""
    calls = {}
    for root in CALLERS:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = getattr(f, "id", None) or getattr(f, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def sets(call: ast.Call, name: str, position) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):   # None: **kwargs
        return True
    if position is None:
        return False
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or len(call.args) > position)


def test_every_optional_parameter_is_set_by_some_caller():
    calls = calls_by_name()
    unset = [(mod, fn, arg) for mod, fn, arg, pos in optional_parameters()
             if not any(sets(c, arg, pos) for c in calls.get(fn, ()))]
    assert sorted(unset) == sorted(UNSET_BY_DESIGN)


def test_every_public_name_resolves():
    missing = [name for name in nlds.__all__ if not hasattr(nlds, name)]
    assert missing == []
