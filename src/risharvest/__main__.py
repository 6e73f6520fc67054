"""Command-line entry point: ``python -m risharvest sweep|summarize ...``."""

import sys

from .sweep import main

if __name__ == "__main__":
    sys.exit(main())
