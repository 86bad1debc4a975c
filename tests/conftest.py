"""Shared pytest configuration.

Property tests run under a derandomized hypothesis profile: every run draws
the same examples, no example database is kept between runs, and there is
no per-example deadline, so results depend neither on earlier runs nor on
how fast the machine is at the moment.
"""

from hypothesis import settings

settings.register_profile("biorth", derandomize=True, deadline=None, database=None)
settings.load_profile("biorth")
