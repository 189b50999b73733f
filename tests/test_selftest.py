"""PYTEST_DONT_REWRITE: the checks' bare asserts must fail as they do under
`srkit selftest`, without the message pytest's assert rewriting adds."""

import pytest

from srkit import selftest


@pytest.mark.parametrize("check", selftest.CHECKS, ids=selftest.name_of)
def test_check(check):
    check()


def check_bare_assert():
    assert 1 + 1 == 3


def test_bare_assert_failure_names_type_and_source_line(monkeypatch, capsys):
    monkeypatch.setattr(selftest, "CHECKS", [check_bare_assert])
    assert selftest.run() == 1
    fail, summary = capsys.readouterr().out.splitlines()
    line = check_bare_assert.__code__.co_firstlineno + 1
    want = f"FAIL bare_assert: AssertionError at test_selftest.py:{line}: assert 1 + 1 == 3"
    assert fail == want, fail
    assert summary == "0/1 checks passed", summary
