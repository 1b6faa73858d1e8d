"""``python -m bigraphpoly``: the command line of ``bigraphpoly.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
