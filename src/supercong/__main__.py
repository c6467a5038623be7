"""`python -m supercong`: the command-line front end (supercong.cli)."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
