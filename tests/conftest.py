import pytest

from vertexmagic import kernels
from vertexmagic.abelian import enumerate_abelian_groups
from vertexmagic.workbench import crosscheck, standard_grid


@pytest.fixture(scope="session")
def catalog8():
    return enumerate_abelian_groups(8)


@pytest.fixture(scope="session")
def grid():
    return standard_grid()


@pytest.fixture(scope="session")
def campaign(grid, catalog8):
    """The full standard crosscheck, shared by workbench and acceptance tests."""
    return crosscheck(grid, catalog8)


@pytest.fixture(scope="session")
def campaign16(grid):
    """The standard crosscheck over every group of order <= 16."""
    return crosscheck(grid, enumerate_abelian_groups(16))


@pytest.fixture
def min_code_calls(monkeypatch):
    """A one-item list counting the test's `kernels.min_code` calls."""
    calls = [0]
    real = kernels.min_code

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(kernels, "min_code", counting)
    return calls
