"""The library holds no code that only tests reach.

Every top-level function, class, class method (dunders excepted) and module
constant of `src/dstforge` must be named somewhere in the library, in
`scripts/` or in `perfbench/`, besides on its own definition line. The
benchmark counts as a caller: it traces and calls library functions by name.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "dstforge").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
WORD = re.compile(r"[A-Za-z_]\w*")


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """(name, line) of each top-level def and class, each method of a
    top-level class and each name a top-level assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node.lineno


def test_every_library_name_has_a_caller_outside_the_tests():
    texts = {path: path.read_text() for path in CALLERS}
    words = Counter(w for text in texts.values() for w in WORD.findall(text))
    unused = []
    for path in LIBRARY:
        lines = texts[path].splitlines()
        for name, lineno in definitions(ast.parse(texts[path])):
            if _dunder(name):
                continue
            if words[name] == WORD.findall(lines[lineno - 1]).count(name):
                unused.append(f"{path.relative_to(ROOT)}:{lineno} {name}")
    assert not unused, "named only on their definition lines: " + ", ".join(unused)
