#!/usr/bin/env python3
"""Code lines of Python files at a git revision and in the working tree.

A code line is a line that holds a token of code: not blank, not a
comment alone, and not part of a module, class or function docstring.
A line that a docstring shares with code, such as ``def f(): "doc"``,
counts.  For each ``.py`` file under the ``PATH`` arguments (relative to
the repository root; default ``src``) the script reads the file at
``--rev`` (default ``HEAD``) with ``git show`` and in the working tree,
and prints the two counts and their difference, then the totals::

    python scripts/code_lines.py --rev HEAD~1 src scripts

A file present on one side only counts 0 on the other.
"""
import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

# tokens that are not code on their own
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    docstrings = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                doc = first.value
                start = (doc.lineno, doc.col_offset)
                docstrings.append((start, (doc.end_lineno, doc.end_col_offset)))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT:
            continue
        if any(start <= tok.start and tok.end <= end for start, end in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def git(*args: str, cwd: Path) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
    ).stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision (default: HEAD)")
    parser.add_argument(
        "paths", nargs="*", metavar="PATH", default=["src"],
        help="files or directories relative to the repository root (default: src)",
    )
    args = parser.parse_args()
    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()).strip())
    listed = git("ls-tree", "-r", "--name-only", args.rev, "--", *args.paths, cwd=root)
    old = {name for name in listed.splitlines() if name.endswith(".py")}
    new = set()
    for path in args.paths:
        full = root / path
        found = [full] if full.is_file() else full.rglob("*.py")
        new.update(str(p.relative_to(root)) for p in found if p.suffix == ".py")
    totals = [0, 0]
    for name in sorted(old | new):
        before = after = 0
        if name in old:
            before = code_lines(git("show", f"{args.rev}:{name}", cwd=root))
        if name in new:
            after = code_lines((root / name).read_text())
        totals[0] += before
        totals[1] += after
        print(f"{name:40} {before:6} {after:6} {after - before:+6}")
    print(f"{'total':40} {totals[0]:6} {totals[1]:6} {totals[1] - totals[0]:+6}")
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (``| head``): point stdout at
        # devnull so the flush at exit does not raise again, and stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
