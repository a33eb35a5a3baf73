"""End-to-end acceptance checks.

Each criterion runs through lcmoments.acceptance at a pinned seed and prints
one PASS/FAIL line.  The shared estimation grid is cached inside the module,
so the two grid-backed criteria build it only once per test process.
Every check is marked ``slow``; ``pytest -m "not slow"`` leaves them out.
"""

import pytest

from lcmoments.acceptance import CHECKS

pytestmark = pytest.mark.slow

SEED = 0


@pytest.mark.parametrize("name", list(CHECKS))
def test_acceptance_criterion(name, capsys):
    result = CHECKS[name](SEED)
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {name} ({result.seconds:.1f}s)")
    assert result.passed, f"{name} failed: {result.detail}"
