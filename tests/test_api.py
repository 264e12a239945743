import ast
from pathlib import Path

import qzak


def _referenced_names(path: Path, imports_count: bool) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif imports_count and isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_resolves():
    missing = [name for name in qzak.__all__ if not hasattr(qzak, name)]
    assert missing == []
    assert len(set(qzak.__all__)) == len(qzak.__all__)


def _public_definitions(src: Path) -> set[str]:
    names = set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        names.update(node.name for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     and not node.name.startswith("_"))
    return names


def _traced_names(tracing: Path) -> set[str]:
    # the benchmark patches the "module.name" strings of these tuples
    names = set()
    for node in ast.parse(tracing.read_text(), filename=str(tracing)).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id in ("SPANNED", "COUNTED")
                        for t in node.targets)):
            names.update(q.rpartition(".")[2] for q in ast.literal_eval(node.value))
    return names


def test_every_public_name_is_used_outside_tests():
    # every name in qzak.__all__ and every public module-level function
    # and class of the package must be referenced by the package itself
    # (not only re-exported by __init__) or by the benchmark, never by
    # tests alone
    src = Path(qzak.__file__).parent
    used = set()
    for path in src.glob("*.py"):
        if path.name != "__init__.py":
            used |= _referenced_names(path, imports_count=False)
    bench = Path(__file__).resolve().parents[1] / "benchmarks"
    for path in bench.glob("*.py"):
        if not path.name.startswith("test_"):
            used |= _referenced_names(path, imports_count=True)
    used |= _traced_names(bench / "tracing.py")
    public = set(qzak.__all__) | _public_definitions(src)
    unused = sorted(public - used)
    assert unused == []
