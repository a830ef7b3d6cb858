"""Same answers on the benchmark's job lists.

``tests/digests.py`` hashes the results of every job of a workload's job
list.  These are the digests of seed 811 at 2 seconds per workload, run
with the default budget.  A change that alters what any job returns
changes its digest; one that changes the answers on purpose updates the
value here and says why.
"""

import pytest

import digests

PINNED = {
    "monoid-ring": (131, "b28d57c339b93235deef8ada7b49eef80590062f0b214f27e9cf589d0924b41b"),
    "cone-duality": (101, "657b35412918d6fa04fae8808b8568e2fe31a0bd43098e8dd6186b848dcb5400"),
    "graded-ideal": (101, "113da1ddeeae804067324bea8dc070b29ff8a9c3f029ea6a02ab470fea0ec5fe"),
    "cli-small": (601, "a2aaf84391f06afbfec7fa12e47a196177f33b92e4d222660eade90d453a9d0c"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_workload_digest_is_pinned(name):
    assert digests.digest(name, 811, 2) == PINNED[name]
