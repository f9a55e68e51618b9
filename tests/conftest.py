"""Shared pytest set-up: hypothesis profiles.  `tier1`, the default, is
derandomized, so that the property tests draw the same examples on every
run and stay bounded in time; it does not shrink, so that a failing
property test reports its first failing example in seconds.  `deep` draws
1500 fresh examples per test with no deadline and shrinks what fails, for
searches run by hand:

    HYPOTHESIS_PROFILE=deep PYTHONPATH=src python -m pytest tests/...
"""

import os

from hypothesis import Phase, settings

settings.register_profile("tier1", derandomize=True, database=None,
                          max_examples=25, deadline=None,
                          phases=(Phase.explicit, Phase.reuse,
                                  Phase.generate))
settings.register_profile("deep", database=None, max_examples=1500,
                          deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
