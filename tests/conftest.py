from collections import OrderedDict

import pytest

from ddcontrol.behavioral import Trajectory
from ddcontrol.plant import PlantModel, collect_offline_data


@pytest.fixture(scope="session")
def siso_model():
    """Reference scalar plant: x+ = 0.5x + u, y = x (steady states y = 2u)."""
    return PlantModel([[0.5]], [[1.0]], [[1.0]], [[0.0]])


@pytest.fixture(scope="session")
def siso_data(siso_model) -> Trajectory:
    # excitation order covers n = 1 with horizons up to mu = 2
    return collect_offline_data(siso_model, 60, pe_order=6, seed=3)


@pytest.fixture()
def factor_cache(monkeypatch):
    """An empty cache of offline factors for one test, restored after it."""
    import ddcontrol.controller as ctrl_module

    cache = OrderedDict()
    monkeypatch.setattr(ctrl_module, "_FACTORS", cache)
    return cache


@pytest.fixture()
def record_cache(monkeypatch):
    """An empty cache of checked offline records for one test, restored after it."""
    import ddcontrol.harness as harness_module

    cache = OrderedDict()
    monkeypatch.setattr(harness_module, "_RECORDS", cache)
    return cache
