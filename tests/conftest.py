"""One Hypothesis profile for every property test: no deadline, derandomized
and without an example database, so the suite stays deterministic.  Each test
file sets only its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("stabrenyi", deadline=None, derandomize=True, database=None)
settings.load_profile("stabrenyi")
