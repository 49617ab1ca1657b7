import sys
from pathlib import Path

from hypothesis import settings

# Let tests import the shared synth helpers as a plain module.
sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and have no per-example
# deadline (the machine's speed varies); max_examples bounds their run time.
settings.register_profile("srfe", derandomize=True, deadline=None, max_examples=200)
settings.load_profile("srfe")
