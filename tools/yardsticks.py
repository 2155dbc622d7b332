"""Print the package's three size yardsticks: lines, code lines, public names.

    python tools/yardsticks.py

Lines are `wc -l` of src/neubound/*.py.  Code lines are the lines on which
tokenize finds a token other than a comment, NL, NEWLINE, INDENT, DEDENT or
the end marker, less the lines of docstring expressions found with ast.
Public names are len(neubound.__all__).
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            if isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
                lines.difference_update(range(body[0].lineno, body[0].end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    texts = [p.read_text(encoding="utf-8") for p in sorted((SRC / "neubound").glob("*.py"))]
    sys.path.insert(0, str(SRC))
    import neubound

    print(sum(t.count("\n") for t in texts), sum(map(code_lines, texts)), len(neubound.__all__))
