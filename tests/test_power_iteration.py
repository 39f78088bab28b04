import numpy as np
import pytest

from fwkit import regions
from fwkit.errors import NumericalError


def test_capped_power_iteration_reports_a_real_residual(monkeypatch):
    # sigma_1 and sigma_2 nearly equal: the Rayleigh quotient is still moving at the cap
    a = np.diag([1.0, 1.0 - 1e-6, 0.5])
    monkeypatch.setattr(regions, "_POWER_ITER_CAP", 5)
    with pytest.raises(NumericalError) as err:
        regions.top_singular_triple(a)
    assert err.value.residual > 0.0


def test_uncapped_power_iteration_still_converges():
    u, sigma, v = regions.top_singular_triple(np.diag([3.0, 1.0, 0.5]))
    assert sigma == pytest.approx(3.0, rel=1e-9)
    assert abs(u[0]) == pytest.approx(1.0) and abs(v[0]) == pytest.approx(1.0)
