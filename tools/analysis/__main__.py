"""``python -m tools.analysis`` — run the lint from the command line."""

import sys

from tools.analysis.cli import main

sys.exit(main())
