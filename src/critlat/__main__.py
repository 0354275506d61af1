"""`python -m critlat`: the `critlat` command-line interface."""

import sys

from .cli import main

sys.exit(main())
