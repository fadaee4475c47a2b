"""`python -m skic`: the `skic` command line."""

import sys

from .cli_pipeline import main

if __name__ == "__main__":
    sys.exit(main())
