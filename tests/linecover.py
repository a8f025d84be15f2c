"""Line coverage of src/etcsim for a whole Tier-1 run, with no coverage package.

    PYTHONPATH=src:tests python -m pytest -q -p linecover

Traces line events in frames whose code lies under src/etcsim only, and at the end
compares them with the lines of every code object compiled from those files.  A line
that never ran and is not in ALLOWED fails the session (exit status 1) and is listed.
Run it on the whole suite: a selection of tests leaves lines unrun by design.
"""

import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "etcsim"
ALLOWED = {  # file: {stripped source line: why Tier-1 never runs it in-process}
    "__main__.py": {"*": "`python -m etcsim` runs only in the subprocess tests"},
    "cli.py": {
        "from .model import JordanPlant, TriggerConfig": "TYPE_CHECKING import, for annotations",
        "from .sim import SimTrace": "TYPE_CHECKING import, for annotations",
        "sys.exit(main())": "the __main__ guard; the tests call cli.main",
    },
}
_hits: dict[str, set[int]] = {}


def _lines(frame, event, arg):
    if event == "line":
        _hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(str(SRC)) else None


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}  # None or 0: no source line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def unrun_lines() -> list[str]:
    """`file:line: text` of every line under src/etcsim that ran nowhere and is not allowed."""
    missed = []
    for path in sorted(SRC.rglob("*.py")):
        allowed = ALLOWED.get(path.name, {})
        text = path.read_text()
        source, run = text.splitlines(), _hits.get(str(path), set())
        for n in sorted(_code_lines(compile(text, str(path), "exec")) - run):
            line = source[n - 1].strip()
            if "*" not in allowed and line not in allowed:
                missed.append(f"{path.relative_to(SRC.parent)}:{n}: {line}")
    return missed


def pytest_configure(config):
    sys.settrace(_calls)
    threading.settrace(_calls)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    missed = unrun_lines()
    if missed:
        print("\nlines of src/etcsim that no test ran:", *missed, sep="\n")
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
