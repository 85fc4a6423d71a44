"""Checks on the source itself: no name of the package is left that only
tests call."""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "fairsift").glob("*.py"))
# the code a package name may be used from: tests do not count
USERS = PACKAGE + sorted(
    path for folder in ("perfbench", "scripts") for path in (ROOT / folder).glob("*.py")
    if path.name != "test_perfbench.py"
)


def _docstring_starts(tree) -> set:
    """The (line, column) where each module, class or function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def word_counts(path) -> Counter:
    """How often each word occurs in the code of ``path``, as a name or in a
    string; docstrings and ``#`` comments do not count.  Strings count
    because code can name a function in one (``perfbench/spans.py`` wraps
    layers by name)."""
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_starts(ast.parse(text))
    strings = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}
    counts = Counter()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.NAME:
            counts[token.string] += 1
        elif token.type in strings and token.start not in docstrings:
            counts.update(re.findall(r"\w+", token.string))
    return counts


def definitions(path):
    """The names ``path`` defines: functions, classes and methods at any
    depth, class-body fields and module-level names, dunders aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [item.target.id for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    for item in tree.body:
        targets = (item.targets if isinstance(item, ast.Assign)
                   else [item.target] if isinstance(item, ast.AnnAssign) else [])
        for target in targets:
            found += [name.id for name in ast.walk(target) if isinstance(name, ast.Name)]
    return [name for name in found if not (name.startswith("__") and name.endswith("__"))]


def test_every_package_name_is_used_outside_its_definition():
    counts = sum((word_counts(path) for path in USERS), Counter())
    defined = Counter(name for path in PACKAGE for name in definitions(path))
    unused = sorted(name for name, n in defined.items() if counts[name] <= n)
    assert unused == [], f"defined but never used outside tests: {unused}"
