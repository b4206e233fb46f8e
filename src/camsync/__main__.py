"""``python -m camsync``: the ``camsync`` command line without the console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
