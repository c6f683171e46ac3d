"""Line coverage of src/ with the standard library alone: a pytest plugin.

Run the tier-1 suite under it from the repository root:

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

While the tests run, sys.settrace (and threading.settrace) records every
line executed in a frame whose code lives under src/.  At the end of the
run the executable lines of each module under src/ are read from its
compiled code objects (co_lines, every nested function and class
included), and the lines never seen are written to linetrace.txt in the
working directory, one `path:line` per line, after a first line giving the
count.  The same count is printed at the end of the terminal report.

Lines run only in a subprocess are not seen.  pytest does not collect this
file: its name does not match test_*.py.  The suite takes several times
longer under the tracer than without it.
"""

import pathlib
import sys
import threading

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
REPORT = "linetrace.txt"
_PREFIX = str(SRC) + "/"

_seen = {}  # file name -> set of line numbers run


def _local(lines):
    def trace(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace
    return trace


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_PREFIX):
        return None
    lines = _seen.setdefault(name, set())
    lines.add(frame.f_lineno)
    return _local(lines)


def _code_lines(code):
    """Every line number of code and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}  # a module starts at line 0
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def executable_lines(src=SRC):
    """{path: set of executable line numbers} of every module under src."""
    out = {}
    for path in sorted(src.rglob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        out[str(path)] = _code_lines(code)
    return out


def never_run(seen, src=SRC):
    """(total executable lines, sorted (path, line) never in seen)."""
    total, missing = 0, []
    for path, lines in executable_lines(src).items():
        total += len(lines)
        missing += [(path, n) for n in sorted(lines - seen.get(path, set()))]
    return total, missing


def pytest_configure(config):
    sys.settrace(_global)
    threading.settrace(_global)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)
    total, missing = never_run(_seen)
    root = SRC.parent
    with open(REPORT, "w", encoding="utf-8") as fh:
        fh.write(f"{len(missing)} of {total} executable lines never run\n")
        for path, line in missing:
            fh.write(f"{pathlib.Path(path).relative_to(root)}:{line}\n")


def pytest_terminal_summary(terminalreporter):
    total, missing = never_run(_seen)
    terminalreporter.write_line(f"linetrace: {len(missing)} of {total} executable lines "
                                f"under src/ never run; list in {REPORT}")
