"""``python -m basecat``: the command-line interface, as ``basecat`` runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
