"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import pathlib
import sys

import quadric_gaudin

SRC = pathlib.Path(quadric_gaudin.__file__).parent
TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_no_bare_assert_in_src():
    # bare asserts vanish under python -O; checks must raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert sorted(p.name for p in SRC.glob("*.py"))  # the walk saw the package
    assert found == []


def _module_level(body):
    """Statements run at import time: the module body and the blocks of its
    compound statements, but not function or class bodies."""
    for node in body:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_level(getattr(node, field, []))


def _is_empty_container(node) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, (ast.List, ast.Set)):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set") and not node.args and not node.keywords)


def empty_module_containers(source: str, name: str) -> list[str]:
    found = []
    for node in _module_level(ast.parse(source, name).body):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None \
                and _is_empty_container(node.value):
            found.append(f"{name}:{node.lineno}")
    return found


def test_no_module_level_mutable_cache():
    # an empty module-level dict, list or set is state shared by every caller
    # in the process; per-object state (such as Pencil.seed_point) holds caches
    found = []
    for path in sorted(SRC.glob("*.py")):
        found.extend(empty_module_containers(path.read_text(), path.name))
    assert found == []
    for text in ("_CACHE: dict = {}", "_CACHE = []", "_CACHE = set()", "_CACHE = dict()",
                 "if True:\n    _CACHE = list()"):
        assert len(empty_module_containers(text, "probe.py")) == 1, text
    assert empty_module_containers("_DEFAULTS = {'seed': 0}\ndef f():\n    cache = {}", "probe.py") == []


def test_runtime_imports_are_stdlib_and_numpy():
    # sympy and hypothesis are test oracles, never runtime dependencies
    outside = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.update(top for top in (n.split(".")[0] for n in names)
                           if top not in sys.stdlib_module_names)
    assert outside == {"numpy"}


def test_every_traced_name_resolves():
    # the benchmark's --trace 1 pass wraps these names; a deletion that
    # breaks one must fail here, not only in a traced bench run
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    dotted = [f"{layer}.{fn}" for layer, names in tracer.SPANS.items() for fn in names]
    for cls_path, methods in tracer.COUNTED.values():
        dotted.extend(f"{cls_path}.{m}" for m in methods)
    missing = []
    for name in dotted:
        mod_name, _, rest = name.partition(".")
        obj = importlib.import_module(f"{tracer.PKG}.{mod_name}")
        for part in rest.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(name)
    assert len(dotted) > 40
    assert missing == []
