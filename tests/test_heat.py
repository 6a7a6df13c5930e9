import json

import numpy as np
import pytest

from vburgers.errors import DivergenceError, WindowError
from vburgers.fields import GridSpec, ScalarField, VectorField
from vburgers.forcing import ConstantForcing, TrigForcing, ZeroForcing
from vburgers.heat import (
    duhamel_forced_heat,
    heat_apply,
    holder_scaling_probe,
    lacunary_field,
)


def test_heat_decays_single_mode(grid1d):
    x = grid1d.axis_coords()
    u = VectorField.from_arrays(grid1d, [np.sin(3 * x)])
    out = heat_apply(u, 0.2)
    expect = np.exp(-9 * 0.2) * np.sin(3 * x)
    assert np.allclose(out.components[0].values, expect, atol=1e-12)


def test_heat_semigroup_property(random_field):
    a = heat_apply(heat_apply(random_field, 0.1), 0.15)
    b = heat_apply(random_field, 0.25)
    assert np.allclose(a.values, b.values, atol=1e-13)


def test_heat_preserves_mean(grid1d, random_field):
    before = random_field.components[0].values.mean()
    after = heat_apply(random_field, 1.0).components[0].values.mean()
    assert after == pytest.approx(before, abs=1e-13)


def test_heat_rejects_negative_time(random_field):
    with pytest.raises(ValueError):
        heat_apply(random_field, -0.1)


def test_duhamel_zero_forcing_is_pure_heat(grid1d, random_field):
    traj = duhamel_forced_heat(random_field, ZeroForcing(grid1d), 0.5, 1e-2)
    expect = heat_apply(random_field, 0.5)
    assert np.allclose(traj.frame(len(traj) - 1).values, expect.values, atol=1e-12)


def test_duhamel_constant_forcing_constant_mode():
    # u0 = 0, g = const vector: solution is g * t exactly (zero mode)
    g = GridSpec(1, 32, 2 * np.pi)
    force = ConstantForcing(VectorField.constant(g, [0.7]))
    traj = duhamel_forced_heat(VectorField.zero(g), force, 1.0, 1e-2)
    final = traj.frame(len(traj) - 1).components[0].values
    assert np.allclose(final, 0.7, atol=1e-10)


def test_duhamel_quadrature_second_order(grid1d, random_field):
    force = TrigForcing(grid1d, seed=4, kmax=3, amplitude=0.5, omega=2.0)
    coarse = duhamel_forced_heat(random_field, force, 0.5, 1e-2)
    fine = duhamel_forced_heat(random_field, force, 0.5, 5e-3)
    ref = duhamel_forced_heat(random_field, force, 0.5, 1.25e-3)
    e_c = np.abs(coarse.frame(-1 % len(coarse)).values - ref.frame(-1 % len(ref)).values).max()
    e_f = np.abs(fine.frame(-1 % len(fine)).values - ref.frame(-1 % len(ref)).values).max()
    assert e_f < e_c / 3.0  # ~4x for a second-order rule


def test_duhamel_non_finite_raises_divergence():
    # the forcing's mean mode overflows the FFT sum, so the state turns non-finite
    g = GridSpec(1, 64, 2 * np.pi)
    force = ConstantForcing(VectorField.constant(g, [1e307]))
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        duhamel_forced_heat(VectorField.zero(g), force, 0.1, 1e-2)


def test_lacunary_field_deterministic():
    g = GridSpec(1, 1024, 2 * np.pi)
    a = lacunary_field(g, 0.5, seed=1)
    b = lacunary_field(g, 0.5, seed=1)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, lacunary_field(g, 0.5, seed=2).values)


def test_scaling_probe_slopes():
    g = GridSpec(1, 4096, 2 * np.pi)
    t_list = np.geomspace(1e-4, 1e-2, 9)
    r1 = holder_scaling_probe(0.5, 1, t_list, g, seed=0)
    assert r1.predicted_slope == pytest.approx(-0.25)
    assert abs(r1.slope - r1.predicted_slope) < 0.05
    r2 = holder_scaling_probe(0.5, 2, t_list, g, seed=0)
    assert abs(r2.slope + 0.75) < 0.05


def test_scaling_probe_json_keys():
    g = GridSpec(1, 4096, 2 * np.pi)
    rep = holder_scaling_probe(0.5, 1, np.geomspace(1e-4, 1e-2, 5), g, seed=0)
    d = json.loads(rep.to_json())
    assert set(d) >= {"alpha", "kappa", "times", "norms", "slope", "predicted_slope"}


def test_scaling_probe_window_gate():
    # a coarse grid cannot resolve the smoothing regime at tiny times
    g = GridSpec(1, 32, 2 * np.pi)
    with pytest.raises(WindowError):
        holder_scaling_probe(0.5, 1, np.array([1e-6, 1e-5]), g, seed=0)


def test_heat_commutes_with_gradient(grid1d):
    from vburgers.fields import gradient

    x = grid1d.axis_coords()
    f = ScalarField(grid1d, np.sin(2 * x) + 0.2 * np.cos(4 * x))
    a = gradient(ScalarField(grid1d, heat_apply(VectorField(grid1d, f.values[None]), 0.3).components[0].values))
    b = heat_apply(gradient(f), 0.3)
    assert np.allclose(a.values, b.values, atol=1e-12)
