"""Count the lines of symex's source: code, docstring, comment and blank.

    python3 tools/loc.py            # this checkout's src/
    python3 tools/loc.py ../parent/src

Docstring lines are those of the docstrings of modules, classes and
functions, blank lines inside them included.  Of the other lines, a blank
one is blank, one that starts with `#` is a comment, and the rest are code.
Also prints len(symex.__all__), imported from the same src/.
"""

import ast
import sys
from pathlib import Path

src = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src")
counts = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
for path in sorted(src.glob("symex/*.py")):
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    for number, line in enumerate(text.splitlines(), start=1):
        kind = "docstring" if number in docstrings else "blank" if not line.strip() else "comment" if line.lstrip().startswith("#") else "code"
        counts[kind] += 1
sys.path.insert(0, str(src.resolve()))
import symex  # noqa: E402

print(" ".join(f"{kind} {count}" for kind, count in counts.items()), f"total {sum(counts.values())}", f"__all__ {len(symex.__all__)}")
