import numpy as np
import pytest

from vburgers.fields import GridSpec, VectorField, make_trig_field

TWO_PI = 2 * np.pi


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
