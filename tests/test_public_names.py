"""Every module-level name of the package is used by the package or the benchmark.

A function, class or UPPER_CASE constant that only tests reach is API kept
for the tests' sake; it belongs in the tests (as `oracles.py` holds the
brute-force references) or nowhere. This test parses `src/convspeech/*.py`
and requires, for each such name, a word-boundary occurrence in the code of
some `.py` file under `src/` or `bench/` beyond its own definition. Comments
and docstrings do not count: naming a function in prose is not calling it.
Other string constants do, since `bench/tracing.py` wraps functions by their
names as strings. The package's `__init__.py` does not count either:
re-exporting a name is not using it.
"""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "convspeech"


def _module_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id


def _code_words(source: str):
    """The word tokens of `source`, leaving out comments and docstrings."""
    docstrings = {(node.body[0].lineno, node.body[0].col_offset)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT or (
                token.type == tokenize.STRING and token.start in docstrings):
            continue
        yield from re.findall(r"\w+", token.string)


def test_no_name_is_used_only_by_tests():
    words = Counter()  # the word tokens of the code of every file that counts
    for folder in ("src", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            if path != PACKAGE / "__init__.py":
                words.update(_code_words(path.read_text()))
    names = [name for path in sorted(PACKAGE.glob("*.py"))
             for name in _module_level_names(ast.parse(path.read_text()))]
    assert len(names) > 100  # the scan found the package
    unused = [name for name in names if words[name] < 2]  # one is the definition
    assert not unused, f"defined in src/convspeech but used only outside src/ and bench/: {unused}"
