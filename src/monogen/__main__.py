"""``python -m monogen``: the command line of ``monogen.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
