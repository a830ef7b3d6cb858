"""Shared test set-up.

``cone.facets_of_rays`` memoizes its last conversions across calls.  A
test that counts the work of a conversion would then read 0 whenever an
earlier test had converted the same rays, so every test starts with an
empty memo, as a fresh process does.
"""

import pytest

from monograde import cone


@pytest.fixture(autouse=True)
def _empty_cone_memo():
    cone._facets_of_generators.cache_clear()
