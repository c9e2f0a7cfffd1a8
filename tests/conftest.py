"""Hypothesis settings shared by every property test.

No example has a deadline: the brute-force oracles are polynomial of
high degree, so one draw can take far longer than the next.
"""

from hypothesis import settings

settings.register_profile("kappalat", deadline=None)
settings.load_profile("kappalat")
