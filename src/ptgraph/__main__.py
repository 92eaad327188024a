import sys

# the library before cli.py and argparse, as the eager package loaded it: a lower peak RSS
from . import boundary, dynamics, errors, graph, spectral
from .cli import main

if __name__ == "__main__":
    sys.exit(main())
