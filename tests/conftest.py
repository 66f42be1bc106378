"""Test-suite settings: property tests draw the same examples on every run.

The profile derandomizes hypothesis (examples follow from each test's
source) and keeps no example database, so a run neither reads nor writes
a .hypothesis/ directory and its outcome does not depend on earlier runs.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
