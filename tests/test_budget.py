"""The enumeration budget and its FINITOPOS_BUDGET default."""

import pytest

from finitopos.budget import DEFAULT_BUDGET, ENV_VAR, Budget
from finitopos.cli import EXIT_USAGE, main
from finitopos.errors import FinitoposError


def test_default_comes_from_the_environment(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert Budget().limit == DEFAULT_BUDGET
    monkeypatch.setenv(ENV_VAR, "7")
    assert Budget().limit == 7
    assert Budget(3).limit == 3


@pytest.mark.parametrize("raw", ["many", "1.5", "", "0", "-4"])
def test_malformed_environment_value_raises(monkeypatch, raw):
    monkeypatch.setenv(ENV_VAR, raw)
    with pytest.raises(FinitoposError, match=ENV_VAR):
        Budget()


def test_cli_reports_malformed_environment_value(monkeypatch, capsys):
    monkeypatch.setenv(ENV_VAR, "lots")
    code = main(["search", "sle-failure", "--max-vertices", "1", "--max-edges", "0"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ENV_VAR in err and "'lots'" in err
