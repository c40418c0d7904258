import numpy as np
import pytest

import hmmvi.diagnostics
import hmmvi.discretisation
from hmmvi import PolytopalMesh, build_gd


@pytest.fixture
def unit_square_mesh():
    return PolytopalMesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        [[0, 1, 2, 3]])


@pytest.fixture
def unit_square_gd(unit_square_mesh):
    return build_gd(unit_square_mesh)


@pytest.fixture
def gradient_passes(monkeypatch):
    """The discretisations whose subcell gradient maps get computed, one
    entry per pass of ``_gradient_groups``."""
    passes = []
    groups = hmmvi.discretisation._gradient_groups

    def counting(gd):
        passes.append(gd)
        return groups(gd)

    for module in (hmmvi.discretisation, hmmvi.diagnostics):
        monkeypatch.setattr(module, "_gradient_groups", counting)
    return passes
