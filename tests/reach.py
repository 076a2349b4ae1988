"""Reach check: every line of ``src/texcas`` runs under the tier-1 suite.

Run from anywhere, with pytest installed::

    python tests/reach.py

The suite runs in this process under a ``sys.settrace`` line tracer that
records the lines of ``src/texcas`` each frame executes; a line counts as
executable when the compiler attributes an instruction to it.  The check
fails when the suite fails, or when an executable line outside
``ALLOWED`` never ran.  Code in a subprocess a test starts is not traced,
so a line reached only that way counts as unreached.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "texcas"

# (file, stripped line text) of the lines no in-process test can run
ALLOWED = {
    # the module entry point, run only as ``python -m texcas.cli``
    ("cli.py", "sys.exit(main())"),
    # the pairs hook calls _repeated_key only for a text that repeats a key
    ("lexicon.py", 'raise AssertionError("no repeated key")'),
}


def executable_lines(path: Path) -> set:
    """The line numbers the compiler gives an instruction, in every code
    object of the file."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace_suite(args) -> tuple:
    """The pytest exit code of the suite, and the lines run per file path."""
    prefix = str(PACKAGE) + os.sep
    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    import pytest  # before tracing: only texcas's frames are of interest

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if any(name == "texcas" or name.startswith("texcas.") for name in sys.modules):
        raise SystemExit("texcas was imported before the tracer started")
    code, ran = trace_suite(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                             *(argv if argv is not None else sys.argv[1:])])
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        missed = executable_lines(path) - ran.get(str(path), set())
        unreached += [(path.name, n, text[n - 1].strip()) for n in sorted(missed)
                      if (path.name, text[n - 1].strip()) not in ALLOWED]
    for name, n, line in unreached:
        print(f"unreached: src/texcas/{name}:{n}: {line}")
    print(f"reach: {len(unreached)} unreached line(s) outside the allowlist")
    if code != 0:
        print(f"reach: the suite failed (pytest exit code {int(code)})")
    return 1 if unreached or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
