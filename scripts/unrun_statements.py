"""Print each statement of src/kindb that the tier-1 tests never execute.

    python3 scripts/unrun_statements.py            # the whole tier-1 suite
    python3 scripts/unrun_statements.py tests/test_kdb.py -k corpus

Runs pytest in this process under a ``sys.settrace`` line tracer that
records the lines of src/kindb that execute, then reads every module's
syntax tree: a statement has run when one of its own lines did (for a
compound statement, a line of its header).  Prints ``path:line: source``
for each statement that never ran, and nothing when every one did.  Exempt
are docstrings, ``global`` and ``nonlocal`` (they compile to no code),
``raise NotImplementedError`` (abstract stubs) and the
``if __name__ == "__main__"`` guard.

The tracer records line numbers only and keeps no reference to a frame, so
the suite's reference-cycle test passes under it.  Hypothesis deadlines are
lifted, since tracing slows every example.  pytest's report goes to stderr.
The exit status is pytest's when it fails, else 1 when a statement never
ran, else 0.  The whole suite takes about twice as long as untraced.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kindb"
FILES = {os.path.realpath(path) for path in PACKAGE.glob("*.py")}

executed: set[tuple[str, int]] = set()
_ours: dict[str, bool] = {}


def _line(frame, event, arg):
    if event == "line":
        executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    ours = _ours.get(name)
    if ours is None:
        ours = _ours[name] = os.path.realpath(name) in FILES
    return _line if ours else None


def _exempt(node: ast.stmt) -> bool:
    if isinstance(node, (ast.Global, ast.Nonlocal)):
        return True
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    if isinstance(node, ast.If):
        test = node.test
        return (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
                and test.left.id == "__name__")
    return False


def _own_lines(node: ast.stmt) -> range:
    """The lines of ``node`` outside its nested statements: its header."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    bodies = [getattr(node, f, None) for f in ("body", "orelse", "finalbody", "handlers")]
    nested = [b[0].lineno for b in bodies if isinstance(b, list) and b]
    return range(first, min(nested) if nested else node.end_lineno + 1)


def statements(tree: ast.Module):
    """Every statement of ``tree`` that compiles to code, docstrings and
    exempt statements (with their bodies) left out."""
    def walk(body):
        for i, node in enumerate(body):
            if _exempt(node):
                continue
            docstring = (i == 0 and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            # ``try`` itself compiles to no code: its blocks stand for it
            if not docstring and not isinstance(node, ast.Try):
                yield node
            for field in ("body", "orelse", "finalbody"):
                yield from walk(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                yield handler
                yield from walk(handler.body)
    yield from walk(tree.body)


def unrun() -> list[str]:
    ran: dict[str, set[int]] = {}
    for name, line in executed:
        ran.setdefault(os.path.realpath(name), set()).add(line)
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        seen = ran.get(os.path.realpath(path), set())
        for node in statements(ast.parse(source)):
            own = _own_lines(node)
            if seen.isdisjoint(own):
                out.append(f"{path.relative_to(ROOT)}:{node.lineno}: "
                           f"{lines[node.lineno - 1].strip()}")
    return out


class _NoDeadlines:
    """A pytest plugin that lifts hypothesis deadlines before any test
    module is collected (importing hypothesis sooner would keep pytest from
    rewriting its asserts)."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("traced", deadline=None)
        settings.load_profile("traced")


def main(argv: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    sys.settrace(_call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider", *argv],
                                 plugins=[_NoDeadlines()])
    finally:
        sys.settrace(None)
    if status != 0:
        return int(status)
    report = unrun()
    for line in report:
        print(line)
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
