"""``python -m repro.lint``: see :mod:`repro.lint.cli`."""

import sys

from .cli import main

sys.exit(main())
