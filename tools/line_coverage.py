"""List the executable lines of ``src/sscompose`` that a pytest run never runs.

    PYTHONPATH=src python -m pytest -q -p tools.line_coverage

Run it from the root of a source checkout.  It is a pytest plugin: from
``pytest_configure`` on, a ``sys.settrace`` tracer (also set for new
threads) records every line that runs in a frame of a package file, and
the terminal summary lists each executable line that never ran, as
``path:line  source``, then their count.  A line is executable when the
compiled module has bytecode for it, so docstrings of functions,
comments and ``else:`` lines never count.  Code run in a subprocess is
not seen.  Tracing about doubles the run's time, so it is a tool, not a
test.
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "sscompose")

_hits = {}          # file name -> line numbers run


def _record(frame, event, arg):
    if event == "line":
        _hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _record


def _trace(frame, event, arg):
    return _record if frame.f_code.co_filename.startswith(PACKAGE + os.sep) else None


def executable_lines(path):
    """The line numbers that hold bytecode in the module at path."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def unreached():
    """(path, line) of every executable package line not run so far."""
    missed = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            missed += [(path, line) for line in
                       sorted(executable_lines(path) - _hits.get(path, set()))]
    return missed


def pytest_configure(config):
    if any(getattr(m, "__file__", None) and m.__file__.startswith(PACKAGE)
           for m in list(sys.modules.values())):
        raise RuntimeError("sscompose was imported before the tracer started: "
                           "its module-level lines would read as unreached")
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    missed = unreached()
    terminalreporter.section("unreached lines of src/sscompose")
    sources = {}
    for path, line in missed:
        if path not in sources:
            with open(path) as fh:
                sources[path] = fh.read().splitlines()
        terminalreporter.write_line(
            f"{os.path.relpath(path, ROOT)}:{line}  {sources[path][line - 1].strip()}")
    terminalreporter.write_line(f"{len(missed)} unreached executable lines")
