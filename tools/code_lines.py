"""Count the code lines of ``src/entmono`` and print them as a Markdown block.

``wc -l`` counts docstrings; this counts the lines that hold a token, less
comments and the docstrings ``ast`` finds. Standard library only. Run from
anywhere as ``python3 tools/code_lines.py``; the paths it prints are relative
to the repository root.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(src: str) -> int:
    """Lines of ``src`` that hold a token, less comments and docstrings."""
    docs = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, DEFS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> None:
    print("### Code lines of `src/entmono` (tokenize, less comments and docstrings)")
    print("```")
    total = 0
    for path in sorted((ROOT / "src" / "entmono").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path.relative_to(ROOT)}")
    print(f"{total:6d} total")
    print("```")


if __name__ == "__main__":
    main()
