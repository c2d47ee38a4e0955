"""Count the code lines of each Python module in a directory.

A code line is a line that is not blank, not a comment and not part of a
docstring (of a module, class or function, found with ``ast``). Prints one
``<count> <module>`` line per module, sorted by name, then ``<total> total``.

    python scripts/count_code_lines.py src/wpcn
"""
import argparse
import ast
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that are not blank, comments or docstrings."""
    skip = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), start=1)
               if number not in skip and line.strip() and not line.strip().startswith("#"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", type=Path, help="directory of the modules (not recursed)")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.directory.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path.name}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
