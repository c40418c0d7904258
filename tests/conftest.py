import numpy as np
import pytest

from hmmvi import PolytopalMesh, build_gd
from hmmvi.discretisation import GradientDiscretisation


@pytest.fixture
def unit_square_mesh():
    return PolytopalMesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        [[0, 1, 2, 3]])


@pytest.fixture
def unit_square_gd(unit_square_mesh):
    return build_gd(unit_square_mesh)


@pytest.fixture
def g_builds(monkeypatch):
    """The discretisations whose gradient matrix G gets built, one entry per build."""
    built = []
    build = GradientDiscretisation._build_gradient_matrix

    def counting(gd, *args):
        built.append(gd)
        return build(gd, *args)

    monkeypatch.setattr(GradientDiscretisation, "_build_gradient_matrix", counting)
    return built
