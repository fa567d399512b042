"""`python -m ontoforge`: the same command line as the `ontoforge` script."""

import sys

from . import cli

sys.exit(cli.main())
