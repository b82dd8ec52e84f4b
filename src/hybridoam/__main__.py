"""The CLI's one process entry, ``run``: ``python -m hybridoam`` and the
``hybridoam`` console script both call it.

Everything the process has imported by then (numpy, the package, the CLI)
lives until it exits, so ``run`` freezes those objects out of the garbage
collector before it runs the command: neither the run's own collections nor
the interpreter's collection at exit walk them again.  ``cli.main(argv)`` is
the in-process API and never freezes.
"""

import gc
import sys

from .cli import main


def run():
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
