import sys
from pathlib import Path

# The benchmark's modules sit beside run.py; the program under test in src/.
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
