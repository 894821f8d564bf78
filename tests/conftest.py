import pytest

from gridcurve import catalog, gridmodel


@pytest.fixture(scope="session")
def all_grids():
    return {name: catalog.grid(name) for name in catalog.grid_names()}


@pytest.fixture(scope="session")
def all_curvesets():
    return {name: catalog.curveset(name) for name in catalog.curveset_names()}


@pytest.fixture(scope="session")
def regression_sets():
    """Curve-sets the catalog expects to validate as Valid or ValidWithCaveats."""
    return [catalog.curveset(e.name) for e in catalog.CURVE_ENTRIES if e.kind == catalog.VALID]


@pytest.fixture
def bounded_closure(monkeypatch):
    """Every ``gridmodel.closure`` without a limit raises GridError past
    20,000 edges, so that a patch that grows without end fails instead of
    hanging the test."""
    real = gridmodel.closure

    def bounded(spec, reduce=None, within=None, limit=None):
        return real(spec, reduce, within, 20_000 if limit is None else limit)

    monkeypatch.setattr(gridmodel, "closure", bounded)
