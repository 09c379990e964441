import sys
from pathlib import Path

from hypothesis import settings

# let test modules import the shared helpers without packaging them
sys.path.insert(0, str(Path(__file__).parent))

# property tests draw the same examples on every run and never fail on timing
settings.register_profile(
    "brlab", derandomize=True, deadline=None, max_examples=500, database=None
)
settings.load_profile("brlab")
