import numpy as np
import pytest

from vburgers import heat, transport
from vburgers.fields import GridSpec, Trajectory, VectorField, make_trig_field

TWO_PI = 2 * np.pi


def forced_heat(u0: VectorField, g, T: float, dt: float) -> Trajectory:
    """The forced heat flow e^{t L}u0 + int_0^t e^{(t-s) L} g_s ds, as the Picard run's iterate 0 marches it."""
    rhs = transport._transport_rhs(u0.grid, g, None)
    return Trajectory(u0.grid, 0.0, dt, heat.integrate(u0.values, u0.grid, T, dt, rhs, None))


@pytest.fixture
def grid1d():
    return GridSpec(1, 64, TWO_PI)


@pytest.fixture
def grid2d():
    return GridSpec(2, 32, TWO_PI)


@pytest.fixture
def sin_field(grid1d):
    x = grid1d.axis_coords()
    return VectorField.from_arrays(grid1d, [np.sin(x)])


@pytest.fixture
def random_field(grid1d):
    return make_trig_field(grid1d, seed=7, kmax=4, amplitude=0.5)


@pytest.fixture
def transform_calls(monkeypatch) -> list:
    """Names of the fields.rfft / fields.irfft calls made while the test runs.

    Each makes one numpy real one-axis transform, ``np.fft.rfft`` or ``np.fft.irfft``, looked up per call.
    """
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    return calls
