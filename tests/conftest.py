import pytest

from stokes_manifolds import fock, multipole, polar


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
    """The lossy-core and Laguerre-coefficient caches, emptied before and
    after, so a sweep builds both while functions patched into `fock` run."""
    caches = (fock._lossy_core, fock._laguerre_steps)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture
def fresh_size_arrays():
    """The per-size block arrays of `polar.diagonal_order`, emptied before and
    after, so the code under test builds them."""
    polar.diagonal_order.cache_clear()
    yield
    polar.diagonal_order.cache_clear()
