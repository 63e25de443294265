"""Line counts of a directory's Python modules: ``wc -l`` and code lines.

A code line holds at least one token that is code: docstrings, comments
and blank lines do not count, and a statement spread over several lines
counts each of them. A docstring is the string that opens a module, class
or function body. Prints one row per module and a total, or with
``--defs`` one row per top-level function or class, decorators included:

    python scripts/code_lines.py            # src/pcia
    python scripts/code_lines.py tests
    python scripts/code_lines.py --defs     # per definition of src/pcia
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parents[1] / "src" / "pcia"
# Tokens that carry no code: layout, comments and the stream's ends.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set:
    """The line numbers every docstring of ``tree`` spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _code_line_numbers(source: str) -> set:
    """The line numbers of ``source`` that hold code outside its docstrings."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines - _docstring_lines(ast.parse(source))


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code outside its docstrings."""
    return len(_code_line_numbers(source))


def counts(directory: Path) -> list:
    """``(name, wc -l, code lines)`` per ``*.py`` file of ``directory``, by name."""
    rows = []
    for path in sorted(directory.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, source.count("\n"), code_lines(source)))
    return rows


def definition_counts(directory: Path) -> list:
    """``(file:name, lines, code lines)`` per top-level function or class, by file and line."""
    rows = []
    for path in sorted(directory.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code = _code_line_numbers(source)
        for node in ast.parse(source).body:
            if isinstance(node, SCOPES):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                span = range(first, node.end_lineno + 1)
                rows.append((f"{path.name}:{node.name}", len(span), len(code.intersection(span))))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", type=Path, default=DEFAULT,
                        help="directory whose *.py files are counted (default: src/pcia)")
    parser.add_argument("--defs", action="store_true",
                        help="one row per top-level function or class, without a total")
    args = parser.parse_args(argv)
    rows = (definition_counts if args.defs else counts)(args.directory)
    if not rows:
        parser.error(f"no *.py files in {args.directory}")
    if not args.defs:
        rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    head = "definition" if args.defs else "module"
    print(f"{head:<{width}}  {'wc -l':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6,}  {code:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
