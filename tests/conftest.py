import numpy as np
import pytest

from gbfrft import transforms


@pytest.fixture
def cold_basis_cache(monkeypatch):
    """An empty spectral-basis cache for one test; the process's own comes back after it."""
    monkeypatch.setattr(transforms, "_BASES", transforms._BasisCache())


@pytest.fixture
def eig_calls(monkeypatch):
    """Copies of the matrices the basis cache decomposes, in call order."""
    calls, decompose = [], transforms.eig_general

    def counted(M):
        calls.append(np.array(M))
        return decompose(M)

    monkeypatch.setattr(transforms, "eig_general", counted)
    return calls
