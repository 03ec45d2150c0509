"""The process entry point: ``python -m svlab`` and the ``svlab`` command.

Both run one command line through ``svlab.cli.main.main`` and exit with
its code.  A library caller or a test calls ``main()`` itself, in
process, and never reaches ``run()``.
"""

import gc

from .cli.main import main


def run() -> int:
    """Run the process's command line and return its exit code.

    The cyclic collector is off for the whole request: svlab's records,
    classes and reports hold no reference cycles, so a collection would
    only rescan them, and reference counting frees each one when its
    last reference goes.  ``main()`` has written and flushed the report
    when it returns, or argparse its help or usage text when it raises
    ``SystemExit``.  The heap is then frozen: every tracked object moves
    to the permanent generation, which the interpreter's collections at
    exit skip, and the operating system takes back its memory when the
    process ends.  Atexit handlers and the final flush of the standard
    streams still run.
    """
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
