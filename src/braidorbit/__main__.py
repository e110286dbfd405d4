"""`python -m braidorbit ...` runs the command line of `braidorbit.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
