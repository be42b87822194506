"""Suite-wide test configuration.

Property tests draw from a derandomized ``hypothesis`` profile: every run of
the suite draws the same examples, so a property test cannot pass on one run
and fail on the next. No deadline, because a draw's time depends on the
machine's load, not on the code under test.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
