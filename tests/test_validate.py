"""Each `qfall validate` check, asserted by the name it prints: a check is
the one home of its assertion and its tolerance."""

import pytest

from qfall.validate import CHECKS


@pytest.mark.parametrize("check", [pytest.param(check, id=name)
                                   for name, check in CHECKS])
def test_oracle_check_passes(check):
    ok, detail = check()
    assert ok, detail
