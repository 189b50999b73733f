import pytest

from srkit import selftest


@pytest.mark.parametrize("check", selftest.CHECKS, ids=selftest.name_of)
def test_check(check):
    check()
