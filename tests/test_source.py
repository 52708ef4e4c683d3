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
