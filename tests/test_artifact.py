import ast
from pathlib import Path

import feedbeam.cli as cli
from feedbeam import artifact


def test_artifact_is_a_leaf_module():
    # The writer may import only the stdlib, numpy and .errors, so it never
    # reaches spec loading or the simulation.
    tree = ast.parse(Path(artifact.__file__).read_text(encoding="utf-8"))
    absolute, package = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            (package if node.level else absolute).add(("." * node.level) + (node.module or ""))
    assert absolute == {
        "__future__", "dataclasses", "json", "math", "os", "re", "tempfile", "typing", "numpy"
    }
    assert package == {".errors"}
    # A tracer that resolves the writer through `cli` wraps every alias of
    # the object it finds there, so `cli` holds the writer's own objects.
    for name in ("_csv_text", "_json_text", "_atomic_write", "_table", "FORMATS"):
        assert getattr(cli, name) is getattr(artifact, name), name
    assert artifact.FORMATS == tuple(artifact._CELL) == ("csv", "json")
