"""`python -m superkdv`: the superkdv command line (cli.main)."""

import sys

from .cli import main

sys.exit(main())
