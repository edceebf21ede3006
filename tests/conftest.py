import pytest

from stokes_manifolds import fock, multipole


@pytest.fixture
def corrupt_cg_tables(monkeypatch):
    """Clebsch-Gordan tables built while this is active carry one entry
    1e-6 off; the table cache is emptied before and after."""
    build = multipole._cg_recursion

    def corrupt(two_s, i_out, q):
        table = build(two_s, i_out, q)
        table[two_s, 0] += 1e-6
        return table

    monkeypatch.setattr(multipole, "_cg_recursion", corrupt)
    multipole.cg_table.cache_clear()
    yield
    multipole.cg_table.cache_clear()


@pytest.fixture
def fresh_fock_caches():
    """The lossy-core and displacement-eigenbasis caches, emptied before and
    after, so a sweep builds both while functions patched into `fock` run."""
    caches = (fock._lossy_core, fock._displacement_eigenbasis)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
