"""Shared pytest settings.

The hypothesis profile derives each property test's examples from the test
itself (derandomize), so every run checks the same cases and a failure
reproduces; max_examples bounds the suite's time, and no example has a
deadline because the mpmath oracles vary in cost.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "critlat", derandomize=True, max_examples=150, deadline=None, database=None
    )
    settings.load_profile("critlat")
