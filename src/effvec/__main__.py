"""``python -m effvec``: the command-line interface, also on an uninstalled checkout."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
