"""Make the harness and the engine importable however pytest was run."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)
