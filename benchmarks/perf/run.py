"""Script entry point: ``python3 benchmarks/perf/run.py`` from the root.

Puts the repository root (for ``benchmarks.perf``) and ``src`` (for
``repro``) on ``sys.path`` so the command needs no ``PYTHONPATH``; in a
directory without ``src`` the import of ``repro`` fails and the
command exits non-zero without printing a result.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

if __name__ == "__main__":
    import repro  # noqa: F401  (fail here, early, when the tree is incomplete)

    from benchmarks.perf.cli import main

    sys.exit(main())
