"""``PYTHONPATH=src python -m benchmarks.perf``."""

import sys

from benchmarks.perf.cli import main

sys.exit(main())
