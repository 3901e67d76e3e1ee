import ast
from pathlib import Path

import feedbeam.bounds
import feedbeam.outage
from feedbeam import special


def test_special_is_a_leaf_module():
    # special may import only the stdlib and .errors, so no package module can form a
    # cycle through it (bounds -> special -> bounds).
    tree = ast.parse(Path(special.__file__).read_text(encoding="utf-8"))
    stdlib, package = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            stdlib.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            (package if node.level else stdlib).add(("." * node.level) + (node.module or ""))
    assert stdlib <= {"__future__", "math", "statistics"}
    assert package == {".errors"}


def test_moved_names_are_the_same_objects_at_their_old_homes():
    assert feedbeam.outage.clopper_pearson is special.clopper_pearson
    assert feedbeam.bounds.q_inverse is special.q_inverse
