import pytest

from nilkaehler import catalog, geometry


@pytest.fixture(scope="session")
def curvatures():
    """(entry, structure) -> (metric, Christoffel symbols, curvature), fully symbolic.

    Computed once per test run; the curvature-heavy suites all read from
    this table instead of redoing the 19 symbolic pipelines.
    """
    table = {}
    for name in catalog.NAMES:
        entry = catalog.get(name)
        for s in entry.structures:
            w = entry.form(s.form_id).form
            table[name, s.id] = geometry.full_curvature(entry.algebra, w, s.J)
    return table


@pytest.fixture(scope="session")
def full_validation():
    """One self_validate() pass over the whole catalog."""
    return catalog.self_validate()
