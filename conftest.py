import os
import sys
from pathlib import Path

ROOT = Path(__file__).parent

# make tests/helpers.py importable from any test module
sys.path.insert(0, str(ROOT / "tests"))

# tests that start `python -m nbbounds` in a subprocess need the package on
# the child's path; pytest's `pythonpath` setting reaches only this process
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
)
