"""Hypothesis profiles.

Tier-1 runs Hypothesis' default profile.  `pytest --hypothesis-profile=ci`
loads `ci`, which raises the example budget of every test that leaves
`max_examples` to the profile: the master's differential tests
(`test_lp.py::TestFracOptimum`) and the metamorphic ones
(`test_metamorphic.py`).
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
