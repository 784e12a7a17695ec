"""Reachability hook: record every function a process enters.

Inert unless ``REPRO_REACH_DIR`` names a directory; then each Python
process that starts with this directory on ``PYTHONPATH`` records the
``(file, first line)`` of every code object it calls, in every thread,
and writes them to ``REPRO_REACH_DIR/<pid>.txt`` at exit.  Used only by
``tools/reach/ledger.py``; nothing in ``src/`` reads the variable.
"""

import os

_OUT = os.environ.get("REPRO_REACH_DIR")
if _OUT:
    import atexit
    import sys
    import threading

    _seen = set()

    def _record(frame, event, arg):
        _seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    def _dump():
        sys.settrace(None)
        with open(os.path.join(_OUT, f"{os.getpid()}.txt"), "a", encoding="utf-8") as fh:
            fh.writelines(f"{line}\t{path}\n" for path, line in _seen)

    sys.settrace(_record)
    threading.settrace(_record)
    atexit.register(_dump)
