"""Shared pytest set-up: a derandomized hypothesis profile, so that the
property tests draw the same examples on every run and stay bounded in
time."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None,
                          max_examples=25, deadline=None)
settings.load_profile("tier1")
