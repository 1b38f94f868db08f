"""Report the statements of ``src/egoforge`` that no test runs.

Usage: ``PYTHONPATH=src python tests/line_report.py [pytest arguments]``

Runs the tests (``tests/`` by default) in this process under a
``sys.settrace`` line tracer that follows ``src/egoforge`` frames alone,
then prints, per module, each statement no test executed: its line and its
first line of source. A statement counts as run when any of its own lines
(a compound statement's header, not its body) ran. Statements with no
bytecode of their own, such as docstrings and ``global``, are never listed.
Commands a test runs in a subprocess are not traced, so code only they
reach is listed too. Uses the standard library and pytest alone; pytest's
own output goes to stderr, and the exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from collections import defaultdict
from contextlib import redirect_stdout
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "egoforge"


def _code_lines(code: types.CodeType) -> set[int]:
    """The lines that hold bytecode, in ``code`` and every nested body."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _own_lines(node: ast.stmt) -> range:
    """The lines of ``node`` that no nested statement covers: a simple
    statement whole, a compound one's decorators and header."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.AST):
        return range(first, max(first + 1, body[0].lineno))
    return range(first, node.end_lineno + 1)


def _statements(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.ExceptHandler)):
            yield node


def unrun(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """(line, first line of source) of each statement in ``path`` with
    bytecode of its own and none of whose own lines ran."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    executable = _code_lines(compile(source, str(path), "exec"))
    missed = []
    for node in _statements(ast.parse(source)):
        own = set(_own_lines(node))
        if own & executable and not own & ran:
            missed.append((node.lineno, lines[node.lineno - 1].strip()))
    return sorted(missed)


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    # Keyed by co_filename, which is relative when sys.path is.
    traced: dict[str, bool] = {}
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in traced:
            traced[name] = os.path.abspath(name).startswith(prefix)
        return local if traced[name] else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        with redirect_stdout(sys.stderr):
            status = pytest.main(argv or [str(TESTS)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"Statements of src/egoforge no in-process test ran ({' '.join(argv) or 'tests/'}; subprocess runs are not traced):")
    by_path: dict[str, set[int]] = defaultdict(set)
    for name, lines in ran.items():
        by_path[os.path.abspath(name)] |= lines
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = unrun(path, by_path[str(path)])
        total += len(missed)
        if missed:
            print(f"{path.relative_to(PACKAGE.parent.parent)}: {len(missed)}")
            print("".join(f"  {line}: {text}\n" for line, text in missed), end="")
    print(f"{total} statements not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
