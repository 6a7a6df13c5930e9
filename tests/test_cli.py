import json
import os

import pytest

from vburgers.cli import REGISTRY, cmd_list, load_config, main
from vburgers.errors import ConfigError


def base_config(tmp_path, **overrides):
    cfg = {
        "name": "smoke",
        "grid": {"d": 1, "n": 64, "L": 6.283185307179586},
        "scheme": {"T": 0.125, "dt": 1 / 256, "m_max": 6, "tol_fp": 1e-10},
        "data": {"kind": "trig", "seed": 5, "kmax": 3, "amplitude": 0.3},
        "checks": ["uniform_estimates"],
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_load_config_roundtrip(tmp_path):
    cfg = load_config(base_config(tmp_path))
    assert cfg["name"] == "smoke"
    assert cfg["forcing"] == {"kind": "zero"}


def test_load_config_rejects_unknown_top_key(tmp_path):
    path = base_config(tmp_path, extra="nope")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_unknown_check(tmp_path):
    path = base_config(tmp_path, checks=["no_such_check"])
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


def test_run_pass_exit_zero(tmp_path, capsys):
    rc = main(["run", base_config(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.strip().endswith("PASS")
    out = tmp_path / "out"
    for name in ("records.csv", "summary.json", "kconstants.json", "uniform_sup.json", "uniform_sup.csv"):
        assert (out / name).exists(), name


def test_run_config_error_exit_two(tmp_path, capsys):
    path = base_config(tmp_path, scheme={"T": 0.125, "dt": 1 / 256, "beta": 0.6})
    rc = main(["run", path])
    assert rc == 2
    assert "beta" in capsys.readouterr().err


def test_run_divergence_exit_three(tmp_path, capsys):
    # a large rough datum on a coarse grid makes the Picard iterates blow past the ceiling
    path = base_config(
        tmp_path,
        grid={"d": 1, "n": 16, "L": 6.283185307179586},
        data={"kind": "trig", "seed": 5, "kmax": 3, "amplitude": 100.0},
        scheme={"T": 0.125, "dt": 1 / 256, "m_max": 3},
    )
    rc = main(["run", path])
    assert rc == 3
    assert "divergence" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"grid": 5}, "grid"),
        ({"scheme": {"T": "0.25", "dt": 1 / 256}}, "T"),
        ({"scheme": {"T": 0.125, "dt": 1 / 256, "nu": 0.25}}, "nu"),
        ({"data": {"kind": "constant", "value": [1, 2]}}, "value"),
        ({"grid": {"d": 1, "n": 8, "L": 6.283185307179586}, "checks": ["heat_scaling"]}, "window"),
        ({"scheme": {"T": 1.0, "dt": 0.25}, "checks": ["schauder"]}, "residual"),
        ({"grid": {"d": 1.5, "n": 64, "L": 6.283185307179586}}, "grid.d"),
        ({"data": {"kind": "trig", "seed": 5.9, "kmax": 3, "amplitude": 0.3}}, "data.seed"),
        ({"data": {"kind": "trig", "seed": 5, "kmax": 3.5, "amplitude": 0.3}}, "data.kmax"),
        ({"scheme": {"T": 0.125, "dt": 1 / 256, "seed": -1}}, "scheme.seed"),
    ],
    ids=[
        "grid_not_object", "T_not_number", "nu_not_one", "constant_wrong_length", "heat_scaling_window",
        "schauder_residual", "d_not_integer", "seed_not_integer", "kmax_not_integer", "seed_negative",
    ],
)
def test_run_malformed_or_out_of_window_exit_two(tmp_path, capsys, overrides, named):
    assert main(["run", base_config(tmp_path, **overrides)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and named in err


def test_run_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    path = base_config(tmp_path, checks=["uniform_estimates", "short_time"])
    for out in (out_a, out_b):
        os.environ["BURGERS_OUT_DIR"] = str(out)
        try:
            assert main(["run", path]) == 0
        finally:
            del os.environ["BURGERS_OUT_DIR"]
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_out_dir_env_override(tmp_path):
    target = tmp_path / "env_out"
    os.environ["BURGERS_OUT_DIR"] = str(target)
    try:
        assert main(["run", base_config(tmp_path)]) == 0
    finally:
        del os.environ["BURGERS_OUT_DIR"]
    assert (target / "summary.json").exists()
    assert not (tmp_path / "out").exists()


def test_list_output_sorted(capsys):
    assert cmd_list() == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [ln.split(":")[0] for ln in lines]
    assert names == sorted(REGISTRY)
    assert len(names) == 7


def test_version_verb(capsys):
    from vburgers import __version__

    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__
