"""``python -m pdesctl``: the same entry point as the ``pdesctl`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
