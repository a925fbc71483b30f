import pytest
from hypothesis import settings

from rotornv.config import FieldConfig, PhysicalConstants, RotorGeometry, config_from_dict


# The exit-code contract's larger budget (tests/test_contract.py), for that
# file alone: python -m pytest --hypothesis-profile contract tests/test_contract.py
settings.register_profile("contract", max_examples=600, deadline=None, derandomize=True, database=None)


@pytest.fixture
def constants():
    return PhysicalConstants()


@pytest.fixture
def geometry_default():
    return RotorGeometry()


@pytest.fixture
def field_tilted():
    return FieldConfig(theta_b_deg=1.0)


@pytest.fixture
def cfg_default():
    return config_from_dict({})


@pytest.fixture
def cfg_tilted():
    return config_from_dict({"field": {"theta_b_deg": 1.0}})
