import pytest

from stokes_manifolds import multipole


@pytest.fixture
def corrupt_cg_tables(monkeypatch):
    """Clebsch-Gordan tables built while this is active carry one entry
    1e-6 off; the table cache is emptied before and after."""
    build = multipole._cg_recursion

    def corrupt(two_s):
        table = build(two_s)
        table[two_s, 0, 0] += 1e-6
        return table

    monkeypatch.setattr(multipole, "_cg_recursion", corrupt)
    multipole.cg_table.cache_clear()
    yield
    multipole.cg_table.cache_clear()
