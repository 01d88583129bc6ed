import pytest

from ypqwave.geometry import solve_geometry
from ypqwave.propagator import KGPropagator, TruncationSpec


@pytest.fixture(scope="session")
def gp23():
    return solve_geometry(2, 3)


@pytest.fixture(scope="session")
def gp34():
    return solve_geometry(3, 4)


def label_lattice(p_top=6):
    import math
    return [(p, q) for p in range(2, p_top + 1) for q in range(p + 1, 2 * p)
            if math.gcd(p, q) == 1]


@pytest.fixture(scope="session")
def duhamel_prop(gp23):
    """A propagator on the duhamel_source benchmark's truncation: 3,600
    keys (beta, i)."""
    trunc = TruncationSpec(s1_max=1, n_max=2, m_max=1, l_max=1, k_max=1,
                           j_max=1, i_max=3, n_basis=20,
                           grid_shape=(8, 4, 4, 6, 8))
    return KGPropagator(gp23, M=1.0, kappa=1.0, trunc=trunc)
