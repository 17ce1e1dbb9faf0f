"""Checks on the package's public surface and on its optional parameters."""

import ast
import re
from pathlib import Path

import nlds

SRC = Path(nlds.__file__).resolve().parent
ROOT = SRC.parent.parent
CALLERS = (SRC.parent, ROOT / "perfbench")   # src/, perfbench/

# (module, name) -> why nothing in src/ or perfbench/ refers to it
UNREFERENCED_BY_DESIGN = {
    ("assembly", "load_matrix"):
        "reads the operator.bin that the oracle command writes through "
        "dump_matrix, so the file format stays one module's decision",
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
    assert unset == []


def public_definitions():
    """(module, name) of every public top-level function and class in
    src/nlds."""
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not stmt.name.startswith("_")):
                yield path.stem, stmt.name


def referenced_names() -> set:
    """Names used in src/ and perfbench/, plus the functions that
    pyproject.toml's entry points name.  nlds/__init__.py and a
    definition's uses of its own name do not count."""
    names = set()
    for root in CALLERS:
        for path in root.rglob("*.py"):
            if path == SRC / "__init__.py":
                continue
            for stmt in ast.parse(path.read_text()).body:
                used = {getattr(node, "id", None) or getattr(node, "attr", None)
                        for node in ast.walk(stmt)
                        if isinstance(node, (ast.Name, ast.Attribute))}
                used.discard(getattr(stmt, "name", None))
                names |= used
    entry_points = re.findall(r"nlds\.\w+:(\w+)",
                              (ROOT / "pyproject.toml").read_text())
    return names | set(entry_points)


def test_every_public_definition_is_used_outside_the_tests():
    used = referenced_names()
    unused = [(mod, name) for mod, name in public_definitions()
              if name not in used]
    assert sorted(unused) == sorted(UNREFERENCED_BY_DESIGN)


def test_every_public_name_resolves():
    missing = [name for name in nlds.__all__ if not hasattr(nlds, name)]
    assert missing == []


def attribute_reads(attr: str):
    """(module, function) of every read of `.<attr>` in src/nlds, with
    the innermost function definition around it."""
    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, module, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                yield module, owner
            yield from visit(child, module, owner)

    for path in sorted(SRC.glob("*.py")):
        yield from visit(ast.parse(path.read_text()), path.stem, None)


def test_expressions_are_sampled_in_one_place_per_model():
    # a dispersal system is sampled by sample_fields, a VSI model by
    # sample_params; every other routine reads what they return
    assert set(attribute_reads("sample")) == {("assembly", "sample_fields"),
                                              ("epidemic", "sample_params")}


def test_dense_operators_are_formed_for_the_oracle_diagnose_and_r0():
    # the Noda path solves on the blocks; a dense matrix of blocks is
    # formed only for the oracle and r0's order-n B11
    assert set(attribute_reads("matrix")) == {
        ("cli", "cmd_oracle"), ("opspec", "dense_spectrum"), ("epidemic", "r0")}


def package_imports(module: str) -> set:
    """The nlds modules that src/nlds/<module>.py imports: `from .m
    import x` and `import nlds.m` both give "m"."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return {n.rsplit(".", 1)[-1] for n in names
            if n.startswith((".", "nlds"))}


def test_spectral_routines_read_only_the_operator():
    # the coarse start is built from the operator's own blocks, so opspec
    # neither samples nor assembles a system
    assert package_imports("opspec") == {"matspec", "errors"}


def definitions(name: str):
    """Module of every function or method called `name` in src/nlds."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == name):
                yield path.stem


def test_reports_and_tables_are_written_in_one_place():
    # result objects go into the report as they are; cli alone turns them
    # into JSON and CSV
    assert set(definitions("to_dict")) | set(definitions("write_csv")) <= {
        "cli"}
