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


def pytest_configure(config):
    # an AccuracyWarning a test does not expect fails it; registered here, not
    # in pyproject.toml, because the bench tests run without brlab on the path
    config.addinivalue_line("filterwarnings", "error::brlab.bessel.AccuracyWarning")
