"""Session-wide fixtures: the full synthesis tables are expensive enough
(seconds each) that every test shares one copy."""

import pytest

import ncvsynth as nv
from ncvsynth import cli


@pytest.fixture(scope="session")
def ncv111_full():
    return nv.settle_all(nv.NCV_111, nv.FULL_TOPOLOGY)


@pytest.fixture(scope="session")
def ncv012_full():
    return nv.settle_all(nv.NCV_012, nv.FULL_TOPOLOGY)


@pytest.fixture(scope="session")
def ncv155_full():
    return nv.settle_all(nv.NCV_155, nv.FULL_TOPOLOGY)


@pytest.fixture(scope="session")
def ncv111_path():
    return nv.settle_all(nv.NCV_111, nv.PATH_TOPOLOGY)


@pytest.fixture(scope="session")
def ncv012_path():
    return nv.settle_all(nv.NCV_012, nv.PATH_TOPOLOGY)


@pytest.fixture(scope="session")
def ncv111_lex012():
    return nv.settle_all(nv.NCV_111, secondary=nv.NCV_012)


@pytest.fixture(scope="session")
def nct_gc():
    return nv.settle_all_nct()


@pytest.fixture(scope="session")
def nct_lex012():
    """The NCT lex-min and lex-max tables of ncv-012."""
    return tuple(nv.settle_all_nct(mode, nv.NCV_012) for mode in ("lex-min", "lex-max"))


@pytest.fixture(scope="session")
def comparison_111(nct_gc, ncv111_full):
    return nv.compare(nct_gc, ncv111_full, nv.NCV_111)


@pytest.fixture(scope="session")
def comparison_012(nct_gc, ncv012_full):
    return nv.compare(nct_gc, ncv012_full, nv.NCV_012)


@pytest.fixture(scope="session")
def warm_cache_dir(tmp_path_factory, ncv111_full, ncv012_full):
    """Cache directory pre-seeded with session tables through the CLI's own
    cache writer, for CLI tests."""
    cache = tmp_path_factory.mktemp("ncv-cache")
    for table in (ncv111_full, ncv012_full):
        path, spec = cli.cache_entry(cache, table.metric, table.topology, nv.SearchOptions())
        cli.write_cached_table(path, spec, table)
    return cache
