import dataclasses
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vburgers import cli
from vburgers.cli import REGISTRY, _build, cmd_list, load_config, main
from vburgers.errors import ConfigError
from vburgers.scheme import SchemeConfig, run_picard


COLE_HOPF_DATA = {"kind": "cole_hopf", "epsilon": 0.3}


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


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_VALID = {
    "name": "fuzz",
    "grid": {"d": 2, "n": 8, "L": 6.283185307179586},
    "scheme": {"T": 0.125, "dt": 1 / 64, "m_max": 2, "seed": 1, "c": 1.5},
    "data": {"kind": "trig", "seed": 5, "kmax": 2, "amplitude": 0.3},
    "forcing": {"kind": "gradient", "seed": 3, "kmax": 2, "amplitude": 0.2, "omega": 1.0},
    "checks": ["uniform_estimates", "short_time"],
}
_EDGES = st.sampled_from(
    [0, -1, 0.5, 3, 16, 2**21, 2**70, 10**400, 1e-320, 1e308, -1e308, float("inf"), float("nan"), [0.5, 0.5],
     "zero", "constant", "trig", "cole_hopf", "lacunary", "gradient"]
)
_KEYS = ["name", "grid", "scheme", "data", "forcing", "checks", "out_dir", "snapshots", "d", "n", "L", "nu", "c",
         "alpha", "beta", "T", "dt", "m_max", "tol_fp", "seed", "kind", "kmax", "amplitude", "value", "epsilon",
         "omega", "mod", "extra"]


@st.composite
def _mutated_configs(draw):
    """The valid config with a few entries replaced, deleted or added, at the top or one section down."""
    cfg = json.loads(json.dumps(_VALID))
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from([None, "grid", "scheme", "data", "forcing"]))
        target = cfg if section is None or not isinstance(cfg.get(section), dict) else cfg[section]
        # an earlier draw may have replaced the section by an empty object, which has no key to pick
        key = draw(st.sampled_from(sorted(target)) | st.sampled_from(_KEYS) if target else st.sampled_from(_KEYS))
        if draw(st.booleans()) and key in target:
            del target[key]
        else:
            target[key] = draw(_EDGES | _JSON)
    return json.dumps(cfg)


@given(raw=st.binary(max_size=40) | (st.text(max_size=40) | _JSON.map(json.dumps) | _mutated_configs()).map(str.encode))
@example(raw=b"\xff{}")
@example(raw=json.dumps({**_VALID, "scheme": {"T": 1e300, "dt": 1e-300}}).encode())
@example(raw=json.dumps({**_VALID, "forcing": {"kind": "trig", "seed": 1, "kmax": 2, "amplitude": -1}}).encode())
@settings(max_examples=500, deadline=None)
def test_load_config_valid_or_config_error(tmp_path_factory, raw):
    # the runner's contract: a config it can build, or one ConfigError (exit 2)
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(raw)
    try:
        cfg = load_config(str(path))
        _build(cfg)
    except ConfigError:
        return
    assert isinstance(cfg.get("out_dir", ""), str)


def test_run_pass_exit_zero(tmp_path, capsys):
    rc = main(["run", base_config(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.strip().endswith("PASS")
    out = tmp_path / "out"
    for name in ("records.csv", "summary.json", "kconstants.json", "uniform_sup.json", "uniform_sup.csv"):
        assert (out / name).exists(), name


@pytest.mark.parametrize(
    "check, overrides, written",
    [
        ("gronwall", {}, ["gronwall.csv", "gronwall.json"]),
        # the heat trajectory solves the equation on the balls to 1e-5 only with a finer step
        ("schauder", {"scheme": {"T": 0.125, "dt": 1 / 1024}},
         ["schauder_j3.csv", "schauder_j3.json", "schauder_j4.csv", "schauder_j4.json", "schauder_sweep.json"]),
        ("interpolation", {}, ["interpolation.json"]),
        # the probe times start at 1e-4, which resolves only on n >= 400
        ("heat_scaling", {"grid": {"d": 1, "n": 512, "L": 6.283185307179586}},
         ["heat_scaling_k1.json", "heat_scaling_k2.json"]),
        # one step is too short a horizon for the Picard records only
        ("gronwall", {"grid": {"d": 1, "n": 16, "L": 6.283185307179586}, "scheme": {"T": 1 / 128, "dt": 1 / 128}},
         ["gronwall.csv", "gronwall.json"]),
    ],
    ids=["gronwall", "schauder", "interpolation", "heat_scaling", "gronwall-one-step"],
)
def test_gronwall_only_skips_picard(tmp_path, monkeypatch, check, overrides, written):
    # a check without the "records" need (Gronwall solves its own transport pair) runs no Picard iteration
    def no_picard(*args, **kwargs):
        raise AssertionError("run_picard called")

    assert "records" not in REGISTRY[check][2]
    monkeypatch.setattr(cli, "run_picard", no_picard)
    forcing = {"kind": "trig", "seed": 2, "kmax": 2, "amplitude": 0.2}
    path = base_config(tmp_path, checks=[check], forcing=forcing, **overrides)
    assert main(["run", path]) == 0
    assert sorted(os.listdir(tmp_path / "out")) == written


@pytest.mark.parametrize(
    "checks",
    [["uniform_estimates"], ["short_time"], ["oracle_compare"], ["short_time", "uniform_estimates"]],
    ids=["uniform", "short_time", "oracle", "short_time+uniform"],
)
def test_records_carry_holder_exactly_for_uniform_estimates(tmp_path, monkeypatch, checks):
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs["record_holder"])
        return run_picard(*args, **kwargs)

    monkeypatch.setattr(cli, "run_picard", spy)
    overrides = {"data": COLE_HOPF_DATA} if "oracle_compare" in checks else {}
    path = base_config(tmp_path, checks=checks, **overrides)
    assert main(["run", path]) == 0
    assert calls == ["uniform_estimates" in checks]


def test_oracle_compare_passes_on_cole_hopf_data(tmp_path):
    path = base_config(tmp_path, checks=["oracle_compare"], data=COLE_HOPF_DATA)
    assert main(["run", path]) == 0
    report = json.loads((tmp_path / "out" / "oracle_compare.json").read_text())
    assert list(report) == ["sup_difference", "tolerance", "verdict"]
    assert report["verdict"] == "pass" and report["sup_difference"] <= report["tolerance"]


def test_oracle_compare_without_cole_hopf_data_exits_two_before_any_work(tmp_path, capsys):
    # the cole_hopf need is checked at load, so no Picard run writes its records first
    (tmp_path / "out").mkdir()
    assert main(["run", base_config(tmp_path, checks=["short_time", "oracle_compare"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and "cole_hopf" in err
    assert os.listdir(tmp_path / "out") == []


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
        ({"scheme": {"T": 0.125, "dt": 1 / 256, "c": float("inf")}}, "finite"),
        ({"grid": {"d": 3, "n": 128, "L": 6.283185307179586}}, "nodes"),
        ({"data": {"kind": "lacunary", "alpha": 1.5, "seed": 1}}, "alpha"),
        ({"forcing": {"kind": "trig", "seed": 1, "kmax": 40, "amplitude": 0.1}}, "alias"),
        ({"out_dir": 7}, "out_dir"),
        ({"grid": {"d": 1, "n": 16, "L": 6.283185307179586}, "scheme": {"T": 1 / 128, "dt": 1 / 128}}, "T >= 2 dt"),
        ({"grid": {"d": 1, "n": 64, "L": 1e-320}}, "2 pi / L"),
    ],
    ids=[
        "grid_not_object", "T_not_number", "nu_not_one", "constant_wrong_length", "heat_scaling_window",
        "schauder_residual", "d_not_integer", "seed_not_integer", "kmax_not_integer", "seed_negative",
        "c_infinite", "grid_above_node_limit", "lacunary_alpha_out_of_range", "forcing_kmax_aliases",
        "out_dir_not_string", "one_step_picard_horizon", "wavenumbers_overflow",
    ],
)
def test_run_malformed_or_out_of_window_exit_two(tmp_path, capsys, overrides, named):
    assert main(["run", base_config(tmp_path, **overrides)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("nu", [1, 1.0])
def test_run_accepts_unit_viscosity(tmp_path, nu):
    # the CLI takes nu = 1 only and records the viscosity of the frame every solve runs in
    assert main(["run", base_config(tmp_path, scheme={"T": 0.125, "dt": 1 / 256, "nu": nu})]) == 0
    out = tmp_path / "out"
    assert '"nu": 1.0' in (out / "kconstants.json").read_text()
    assert json.loads((out / "summary.json").read_text())["k_constants"]["nu"] == 1.0


def test_scheme_keys_are_scheme_config_fields():
    # every scheme key but the input-only nu lands on a SchemeConfig field
    fields = {f.name for f in dataclasses.fields(SchemeConfig)} - {"grid"}
    assert fields == cli._SCHEME_KEYS - {"nu"}


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


def test_summary_k_is_the_k_the_checks_use(tmp_path):
    # on 2-D n=32 the forcing's parabolic seminorm inside K is sampled, so K depends on the seed
    path = base_config(
        tmp_path,
        grid={"d": 2, "n": 32, "L": 6.283185307179586},
        scheme={"T": 1 / 16, "dt": 1 / 128, "seed": 3},
        data={"kind": "trig", "seed": 5, "kmax": 3, "amplitude": 0.3},
        forcing={"kind": "trig", "seed": 11, "kmax": 2, "amplitude": 0.2},
    )
    assert main(["run", path]) == 0
    out = tmp_path / "out"
    kc = json.loads((out / "summary.json").read_text())["k_constants"]
    assert json.loads((out / "kconstants.json").read_text()) == kc
    holder = json.loads((out / "uniform_holder.json").read_text())
    assert holder["rhs"] == [(kc["c"] * kc["K"]) ** ((3.0 + kc["alpha"]) / 2.0)]


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
