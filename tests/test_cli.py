import dataclasses
import hashlib
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vburgers import cli
from vburgers.cli import REGISTRY, _build, cmd_list, load_config, main
from vburgers.errors import ConfigError
from vburgers.fields import read_snapshot
from vburgers.scheme import SchemeConfig, run_picard


COLE_HOPF_DATA = {"kind": "cole_hopf", "epsilon": 0.3}


BASE_SCHEME = {"T": 0.125, "dt": 1 / 256, "m_max": 6, "tol_fp": 1e-10}


def base_config(tmp_path, **overrides):
    cfg = {
        "name": "smoke",
        "grid": {"d": 1, "n": 64, "L": 6.283185307179586},
        "scheme": dict(BASE_SCHEME),
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
@example(raw=json.dumps({**_VALID, "forcing": {**_VALID["forcing"], "amplitude": 1e308}}).encode())
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


# check -> (config overrides, artifacts written) of the configs that run no Picard iteration
NO_PICARD_FORCING = {"kind": "trig", "seed": 2, "kmax": 2, "amplitude": 0.2}
NO_PICARD_CASES = {
    "gronwall": ("gronwall", {}, ["gronwall.csv", "gronwall.json"]),
    # a horizon of 1/8 fits the balls of j = -3 and -4 only
    "schauder": ("schauder", {"scheme": {"T": 0.125, "dt": 1 / 1024}},
                 ["schauder_j3.csv", "schauder_j3.json", "schauder_j4.csv", "schauder_j4.json", "schauder_sweep.json"]),
    # the README example's horizon and step: its residual is within the stencil error there
    "schauder-readme-step": ("schauder", {"scheme": {"T": 0.25, "dt": 0.00390625}},
                             ["schauder_j2.csv", "schauder_j2.json", "schauder_j3.csv", "schauder_j3.json",
                              "schauder_j4.csv", "schauder_j4.json", "schauder_sweep.json"]),
    "interpolation": ("interpolation", {}, ["interpolation.json"]),
    # the probe times start at 1e-4, which resolves only on n >= 400
    "heat_scaling": ("heat_scaling", {"grid": {"d": 1, "n": 512, "L": 6.283185307179586}},
                     ["heat_scaling_k1.json", "heat_scaling_k2.json"]),
    # one step is too short a horizon for the Picard records only
    "gronwall-one-step": ("gronwall", {"grid": {"d": 1, "n": 16, "L": 6.283185307179586},
                                       "scheme": {"T": 1 / 128, "dt": 1 / 128}},
                          ["gronwall.csv", "gronwall.json"]),
}


@pytest.mark.parametrize("check, overrides, written", NO_PICARD_CASES.values(), ids=NO_PICARD_CASES)
def test_gronwall_only_skips_picard(tmp_path, monkeypatch, check, overrides, written):
    # a check without the "records" need (Gronwall solves its own transport pair) runs no Picard iteration
    def no_picard(*args, **kwargs):
        raise AssertionError("run_picard called")

    assert "records" not in REGISTRY[check][2]
    monkeypatch.setattr(cli, "run_picard", no_picard)
    path = base_config(tmp_path, checks=[check], forcing=NO_PICARD_FORCING, **overrides)
    assert main(["run", path]) == 0
    assert sorted(os.listdir(tmp_path / "out")) == written


def test_schauder_reads_the_step_on_each_ball(tmp_path, capsys):
    # the lacunary datum's top modes make the first frames too rough for dt = 1/512 (est 2.5, 0.029 of
    # max|d_t u|), but they are gone by the j = 0 ball [1/2, 3/2]: every ball is checked, none is refused
    path = base_config(tmp_path, checks=["schauder"], scheme={"T": 1.5, "dt": 1 / 512},
                       data={"kind": "lacunary", "alpha": 0.5, "seed": 1})
    assert main(["run", path]) == 1  # the sweep's verdict: its constants fall fourfold across the five scales
    assert "does not" not in capsys.readouterr().err
    for j in range(5):
        report = json.loads((tmp_path / "out" / f"schauder_j{j}.json").read_text())
        assert report["params"]["residual"] < 1e-5


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


def test_oracle_compare_passes_on_2d_cole_hopf_data(tmp_path):
    path = base_config(
        tmp_path,
        grid={"d": 2, "n": 32, "L": 6.283185307179586},
        scheme={"T": 1 / 8, "dt": 1 / 1024, "m_max": 14, "tol_fp": 1e-10},
        data=COLE_HOPF_DATA,
        checks=["oracle_compare"],
    )
    assert main(["run", path]) == 0
    report = json.loads((tmp_path / "out" / "oracle_compare.json").read_text())
    assert report["verdict"] == "pass" and report["sup_difference"] <= report["tolerance"]


def test_zero_data_passes_the_estimate_checks(tmp_path, capsys):
    path = base_config(tmp_path, data={"kind": "zero"}, checks=["uniform_estimates", "short_time"])
    assert main(["run", path]) == 0
    assert capsys.readouterr().out == "PASS\n"


def test_run_failing_check_exit_one(tmp_path, capsys):
    # a coarse step misses the exact Cole-Hopf solution by about 5.9e-4, above the 1e-5 tolerance
    path = base_config(
        tmp_path,
        grid={"d": 1, "n": 32, "L": 6.283185307179586},
        scheme={"T": 0.5, "dt": 1 / 16},
        data={"kind": "cole_hopf", "epsilon": 0.5},
        checks=["oracle_compare"],
    )
    assert main(["run", path]) == 1
    assert capsys.readouterr().out == "FAIL: oracle_compare\n"
    report = json.loads((tmp_path / "out" / "oracle_compare.json").read_text())
    assert report["verdict"] == "fail" and report["sup_difference"] > report["tolerance"] == 1e-5


def test_oracle_compare_without_cole_hopf_data_exits_two_before_any_work(tmp_path, capsys):
    # the cole_hopf need is checked at load, before the Picard run starts
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
    _assert_nothing_written(tmp_path / "out")


def _assert_nothing_written(out) -> None:
    # a run that exits 2 or 3 writes no artifact; out_dir may exist, created before the run
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"grid": 5}, "grid"),
        ({"scheme": {"T": "0.25", "dt": 1 / 256}}, "T"),
        ({"scheme": {"T": 0.125, "dt": 1 / 256, "nu": 0.25}}, "nu"),
        ({"data": {"kind": "constant", "value": [1, 2]}}, "value"),
        ({"grid": {"d": 1, "n": 8, "L": 6.283185307179586}, "checks": ["heat_scaling"]}, "window"),
        ({"scheme": {"T": 1.0, "dt": 0.25}, "checks": ["schauder"]}, "residual"),
        # the uniform reports pass, then schauder is refused: their files must not be left behind
        ({"scheme": {"T": 1.0, "dt": 0.25}, "checks": ["uniform_estimates", "schauder"]}, "residual"),
        ({"grid": {"d": 1.5, "n": 64, "L": 6.283185307179586}}, "grid.d"),
        ({"data": {"kind": "trig", "seed": 5.9, "kmax": 3, "amplitude": 0.3}}, "data.seed"),
        ({"data": {"kind": "trig", "seed": 5, "kmax": 3.5, "amplitude": 0.3}}, "data.kmax"),
        ({"scheme": {"T": 0.125, "dt": 1 / 256, "seed": -1}}, "scheme.seed"),
        ({"scheme": {"T": 0.125, "dt": 1 / 256, "c": float("inf")}}, "finite"),
        ({"grid": {"d": 3, "n": 128, "L": 6.283185307179586}}, "nodes"),
        ({"data": {"kind": "lacunary", "alpha": 1.5, "seed": 1}}, "alpha"),
        # 1 + eps cos x + eps/2 cos y (+ eps/3 cos z) reaches 1 - eps (1 + ... + 1/d) at the box's centre
        ({"grid": {"d": 2, "n": 16, "L": 6.283185307179586}, "data": {"kind": "cole_hopf", "epsilon": 0.8}}, "epsilon"),
        ({"grid": {"d": 3, "n": 8, "L": 6.283185307179586}, "data": {"kind": "cole_hopf", "epsilon": 0.6}}, "epsilon"),
        ({"forcing": {"kind": "trig", "seed": 1, "kmax": 40, "amplitude": 0.1}}, "alias"),
        ({"out_dir": 7}, "out_dir"),
        ({"grid": {"d": 1, "n": 16, "L": 6.283185307179586}, "scheme": {"T": 1 / 128, "dt": 1 / 128}}, "T >= 2 dt"),
        ({"grid": {"d": 1, "n": 64, "L": 1e-320}}, "2 pi / L"),
        ({"grid": {"d": 1, "n": 64, "L": 1e300}}, "2 pi / L"),
        ({"grid": {"d": 1, "n": 64, "L": 1e-300}}, "2 pi / L"),
        ({"forcing": {"kind": "gradient", "seed": 3, "kmax": 2, "amplitude": 1e308}}, "does not fit in floats"),
        ({"forcing": {"kind": "trig", "seed": 3, "kmax": 2, "amplitude": 1e308}}, "does not fit in floats"),
        ({"data": {"kind": "trig", "seed": 5, "kmax": 3, "amplitude": 1e200}}, "does not fit in floats"),
        ({"scheme": {**BASE_SCHEME, "c": 1e60}}, "at c="),
        ({"scheme": {**BASE_SCHEME, "c": 1e160}}, "at c="),
        ({"scheme": {**BASE_SCHEME, "c": 1e200}, "checks": ["short_time"]}, "at c="),
        # relative to the test's directory, which holds the config file cfg.json
        ({"out_dir": "cfg.json"}, "cannot create out_dir"),
        ({"out_dir": "cfg.json/out"}, "cannot create out_dir"),
    ],
    ids=[
        "grid_not_object", "T_not_number", "nu_not_one", "constant_wrong_length", "heat_scaling_window",
        "schauder_residual", "uniform_then_schauder_residual", "d_not_integer", "seed_not_integer", "kmax_not_integer",
        "seed_negative",
        "c_infinite", "grid_above_node_limit", "lacunary_alpha_out_of_range", "cole_hopf_epsilon_2d",
        "cole_hopf_epsilon_3d", "forcing_kmax_aliases",
        "out_dir_not_string", "one_step_picard_horizon", "wavenumbers_overflow", "distances_overflow",
        "distances_underflow", "gradient_forcing_overflow", "trig_forcing_overflow", "data_overflow",
        "bound_overflow_c", "k_overflow_c", "k_overflow_c_short_time", "out_dir_is_file", "out_dir_under_file",
    ],
)
def test_run_malformed_or_out_of_window_exit_two(tmp_path, monkeypatch, capsys, overrides, named):
    monkeypatch.chdir(tmp_path)
    assert main(["run", base_config(tmp_path, **overrides)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and named in err
    _assert_nothing_written(tmp_path / "out")


def test_failed_write_exits_two_and_leaves_nothing(tmp_path, capsys):
    # a directory where summary.json goes fails before any artifact is renamed into place
    (tmp_path / "out" / "summary.json").mkdir(parents=True)
    assert main(["run", base_config(tmp_path, checks=["short_time"])]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("config error: cannot write the artifacts: ") and "summary.json" in captured.err
    assert os.listdir(tmp_path / "out") == ["summary.json"] and os.listdir(tmp_path / "out" / "summary.json") == []


@pytest.mark.parametrize(
    "c, checks",
    [(1e160, ["uniform_estimates"]), (1e200, ["short_time"])],
    ids=["k_overflow_c", "k_overflow_c_short_time"],
)
def test_k_overflow_exits_two_before_picard(tmp_path, monkeypatch, c, checks):
    # K = c^2 base does not fit in floats: K(t) alone decides that, so the run exits 2 before any iterate marches
    def no_picard(*args, **kwargs):
        raise AssertionError("run_picard called")

    monkeypatch.setattr(cli, "run_picard", no_picard)
    assert main(["run", base_config(tmp_path, scheme={**BASE_SCHEME, "c": c}, checks=checks)]) == 2
    _assert_nothing_written(tmp_path / "out")


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


# base_config overrides of the configs whose artifacts are pinned byte for byte
DIGEST_CONFIGS = {
    # the README example, with snapshots
    "readme_snapshots": {"scheme": {"T": 0.25, "dt": 0.00390625}, "checks": ["uniform_estimates", "short_time"],
                         "snapshots": True},
    # bench/workloads.py's verify_2d_forced at seed 0
    "verify_2d_forced": {
        "name": "verify_2d_forced",
        "grid": {"d": 2, "n": 32, "L": 6.283185307179586},
        "scheme": {"T": 1 / 16, "dt": 1 / 128, "seed": 0},
        "forcing": {"kind": "trig", "seed": 11, "kmax": 2, "amplitude": 0.2},
        "checks": ["uniform_estimates", "short_time"],
    },
    # criterion 01's Cole-Hopf datum and horizon
    "cole_hopf_oracle": {
        "grid": {"d": 1, "n": 128, "L": 6.283185307179586},
        "scheme": {"T": 1.0, "dt": 1e-3, "m_max": 14, "tol_fp": 1e-10},
        "data": {"kind": "cole_hopf", "epsilon": 0.5},
        "checks": ["oracle_compare", "short_time"],
    },
    # verify_2d_forced's grid, horizon and forcing, with the Gronwall check only
    "gronwall_2d_forced": {
        "grid": {"d": 2, "n": 32, "L": 6.283185307179586},
        "scheme": {"T": 1 / 16, "dt": 1 / 128, "seed": 0},
        "forcing": {"kind": "trig", "seed": 11, "kmax": 2, "amplitude": 0.2},
        "checks": ["gronwall"],
    },
    # test_run_failing_check_exit_one's config: oracle_compare fails, so the run exits 1
    "cole_hopf_coarse_fails": {
        "grid": {"d": 1, "n": 32, "L": 6.283185307179586},
        "scheme": {"T": 0.5, "dt": 1 / 16},
        "data": {"kind": "cole_hopf", "epsilon": 0.5},
        "checks": ["oracle_compare"],
    },
    **{f"no_picard_{key}": {"checks": [check], "forcing": NO_PICARD_FORCING, **overrides}
       for key, (check, overrides, _) in NO_PICARD_CASES.items()},
}

# config -> artifact name -> sha256, taken with numpy 2.4.6 (pocketfft) on x86-64. A change that moves an
# artifact on purpose re-pins its digest and says why; a numpy build that rounds differently re-pins them all.
ARTIFACT_DIGESTS = {
    "readme_snapshots": {
        "kconstants.json": "1a68ea8976922cb395ce9ad6cde6ae6c6a682666401a32e00b9f6f0c2a8be8b0",
        "records.csv": "d99af5cf8e4d7194ef2e1d1bdeabdb56cd1a317e62427d33e96a4e54fd8e7fb8",
        "short_time_grad.csv": "d5f161d30896ad9f0b4479f438a90aa6de649d29b463607097363cd3a24f4c05",
        "short_time_grad.json": "30a493067137d9ce2f3c523b15d79678f8784e78ad79a861df4a2a44d54c66ba",
        "short_time_sup.csv": "7d6ad51a3e970ed74ad9e8e42493059c1ca0e677409cb4b735bac976278e240e",
        "short_time_sup.json": "eeacbc24bc2740569b34429c57f3f1df96e5ec8f2bf5a4421129fa785de81cea",
        "summary.json": "8e983500d7bc5fe316fb5bdc805acb9064a4b3e9d998850877a2fb807641c72f",
        "u0.bfld": "81c67ccdc1fb34682a9f74e2b7591a9576e1c54fd30f90186dc67373e8558abe",
        "u_final.bfld": "9f406d684fd472727c9e2bcafb1ac2430395dc96556fc8d3f82eacc3f9f66669",
        "uniform_grad.csv": "4847e8bb03828524c26a0880521bef2182d35142167f12601bbff67e315e2529",
        "uniform_grad.json": "08fc83b44fb3ffe0e8cc6f82f33d7dbad55501ecd8c7f1f4243eaddf1bfcfa84",
        "uniform_holder.csv": "8a670e82583e9c7ca668c3ec55c3d5c3a629e0a24883c4415f1438327fb11b50",
        "uniform_holder.json": "242a2c60772224831b57c63a8d624e22ba3cfad48b9a61554c0c1893bab8f59c",
        "uniform_second.csv": "4aeb0625e75c793ac4f51a7cc1291ae0bbc78c9547fb3d1c91911f9f110e8525",
        "uniform_second.json": "897f739a1fce1cefa3f87401623a5696e246a9c5d6493bb688239939cce812d1",
        "uniform_sup.csv": "f0f6bba44663e0c7e1f53f6e40b8a99a69dd55066f871c2ae06339e429eae6c0",
        "uniform_sup.json": "5cd5e8f184309a230f4d650ef9e0232b6df377905dcf3bb6316cf2bbc07a5846",
    },
    "verify_2d_forced": {
        "kconstants.json": "c0a150dbcc444c472b57c27c4295f424d06edac68c9eb7718576f17900b61b6a",
        "records.csv": "ffa836c9eb2a62c7e36104999914fdd71292c293ad45d0a4359647972657c5c6",
        "short_time_grad.csv": "ef94ce5b7484df2c0b75b0bbdbf38007633d203bb3dfe28cbc18dafe102fcb68",
        "short_time_grad.json": "4f1372b28a6156c8a31b1ee9598648988309f3d80de8e6b2d8ec51f2ce0ebef6",
        "short_time_sup.csv": "35c98dd0198292e1bc3f770e4597f8ae5fa4604fc559a630568f3ca90bda1a0f",
        "short_time_sup.json": "4209749b3d11aad14caf5e469dae5a59c0a13ca75759a1f571008a79308a6939",
        "summary.json": "5766b1053481d07815ea2990606e75fbe62b6a5de3d22a24c1a3ffb51ac40c51",
        "uniform_grad.csv": "2d088f3f27c2ba0e68065fa1bf741e86f5661d477a7c3863d0daae44dedbb449",
        "uniform_grad.json": "fc28e09b2409ca07b0c88e8cb29a4a1c8397abbb1402b21a82311335f5e6ef53",
        "uniform_holder.csv": "2791784ae6b263d78efa9ab343a300a1b51afb3ba731db40bcd5456aee962393",
        "uniform_holder.json": "88e53c516bd802ba40796128130c618cc4866454cdb5c92f0c52361ad630a3c9",
        "uniform_second.csv": "01156f5c812619f51be875d6780d954214d85d7127a58b934b41b0eacaa2f70c",
        "uniform_second.json": "f11e180567dfae7f966c7bd96889c7ff1bd119958ccb8361813de65c2154b955",
        "uniform_sup.csv": "f9eeabcefa71492cbc0eb829d773ea358f82f44abfe075f322cddaa26443d7c6",
        "uniform_sup.json": "7c9f37fcd219f704e4a6eec782701c7aef791f7e25b830a455df85c56ebbc344",
    },
    "cole_hopf_oracle": {
        "kconstants.json": "7444fa7176ac250e705a73086a2f34228626dc9f38f8fda2f60e392eee6cf648",
        "oracle_compare.json": "555a0e45cf7e2c11e7f936d6f5b53695d3618d94b8100bbad8b73b0729a39d92",
        "records.csv": "0fa5d30890467543248802455b538535ae74c6e80f11e3420adb73bf71843b3b",
        "short_time_grad.csv": "4fd1d0321ac185d9938ff91113fa88ed10189b759115187797d89c73d4b36c2d",
        "short_time_grad.json": "16730d2f5aa3bc74a6e50eb104d775409cc1b7ee4665786bede08fecc7f5de11",
        "short_time_sup.csv": "7d4a3488eb2b7dfb364145278034431b6882b3e55e29dfda6561e9e68b8f03af",
        "short_time_sup.json": "57fbffd66255754fac54560dac4d7fc80029fd4ae80a9dc7dde075c32c6ce5c8",
        "summary.json": "3462fdeb80a98e445501537482b1ce99d8b4048776094849dd9d1ed7763905ee",
    },
    "gronwall_2d_forced": {
        "gronwall.csv": "57f8e9c2492caf4c02fbf985a2c7d06062118e5b65025b730f0667744a50f1e5",
        "gronwall.json": "b11c9988ca84c90f0b43c055b6048579c74f88450c7dd772c7225641563c3e24",
    },
    "cole_hopf_coarse_fails": {
        "kconstants.json": "383bb0a65f4c537e1f9d78dc16138c1300d4c1e3fa62fc401cea9d1f1f6f5b3a",
        "oracle_compare.json": "60260aaf76314ffebc560eda41e14deda4180f3b2fac7d310c43904bedff092b",
        "records.csv": "ab44a4713debc39432263362c9c846c47a6c0a2cd0c438c1f7679d2d777e54c6",
        "summary.json": "aa69a1f1dcf39d1d2ff16636333fd1d052539525211ea43ec305b85979169e7b",
    },
    "no_picard_gronwall": {
        "gronwall.csv": "d71d65521da69f9f7adc95fd94571b32b1b89e819648cef2560de9cb69c8c978",
        "gronwall.json": "f12fc9af594cabc0fbdc3023d76e2ee8b70c7d0f8f4bdd6f9dcb96dd84566e10",
    },
    # the per-scale reports' params carry no alpha_prime since the second_holder form is gone
    "no_picard_schauder": {
        "schauder_j3.csv": "94e1e660989958619d30d8b314d2d1dce52d31ff9c1d57b82a9ab01210dc5e03",
        "schauder_j3.json": "1020a3d7eb548eafdbaa430ef17b2c640b6446beea090e3a616b5bbb484981db",
        "schauder_j4.csv": "d53f9159120209c94a16fdc41cb61815442a4cac4be888dfdc1351305138a1fb",
        "schauder_j4.json": "9ba71f9fc662c9091afb95dcd009602f0d79e690cf4ab0a4ebf0c8b2480b0d49",
        "schauder_sweep.json": "0a08296ddb59800265552fec4205e4a0c38aabddf43e34233c851a6144cdee43",
    },
    "no_picard_interpolation": {
        "interpolation.json": "2f236d705aac05cabb0dfa95c6d265451b63832a1d790c00520012c85db68a6a",
    },
    "no_picard_heat_scaling": {
        "heat_scaling_k1.json": "1ddd73955bd4033123133dcb61becb8ad498d1c19cdb5585162e1de99bcdd5bd",
        "heat_scaling_k2.json": "1515c9ebac86c8193cc65905389f0286f9bdaeec5144ddd0c1ec4a6bb27961a8",
    },
    "no_picard_gronwall-one-step": {
        "gronwall.csv": "77df82db43e464d3f721925ea494c540bd5d30ad663582b8b0001456cf246c7f",
        "gronwall.json": "ef1a4c478f8dfa56f8af358c157d823961e682b610a86cf82ad7a6f65ce2b355",
    },
    "no_picard_schauder-readme-step": {
        "schauder_j2.csv": "b8ddbb851dfd0d60edbe3d5c88a07269ea4be212fcbdab0e272d852366eb25d5",
        "schauder_j2.json": "e1e2fa60b5c8a18ecc06833ce4d108388a32af091ade3d30dc31cd7f39f458b3",
        "schauder_j3.csv": "20016e0bd76dfae54acaa0cf5730beb7742b834a7fff89eda6eaf5f0e28e4339",
        "schauder_j3.json": "b7277ed09f9a1365474f0358875ecc5046a45755499cb3d74c5b78833554fd6b",
        "schauder_j4.csv": "3163f36aff46e0e828653c7c0fc9601b0ac63f115e7aadcded764992196eace8",
        "schauder_j4.json": "5cd779996562fccd76a39b95a54d13bf3bd6fae4cd9af8dbde6fdfb17209832b",
        "schauder_sweep.json": "9ff987e36b3ad6e3bea52a13698c8b449f2b2a9a66ee19b5e76a8cf36a9a45a2",
    },
}


def _artifact_digests(out) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in sorted(os.listdir(out))}


def test_readme_example_is_the_pinned_config(tmp_path):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
        example = json.loads(f.read().split("```json\n", 1)[1].split("```", 1)[0])
    with open(base_config(tmp_path, **DIGEST_CONFIGS["readme_snapshots"])) as f:
        pinned = json.load(f)
    keys = ("grid", "scheme", "data", "checks")
    assert {k: example[k] for k in keys} == {k: pinned[k] for k in keys}


@pytest.mark.parametrize("key", DIGEST_CONFIGS)
def test_run_artifacts_keep_their_bytes(tmp_path, capsys, key):
    fails = key == "cole_hopf_coarse_fails"
    assert main(["run", base_config(tmp_path, **DIGEST_CONFIGS[key])]) == int(fails)
    assert capsys.readouterr().out == ("FAIL: oracle_compare\n" if fails else "PASS\n")
    assert _artifact_digests(tmp_path / "out") == ARTIFACT_DIGESTS[key]


def test_run_snapshots_read_back(tmp_path, monkeypatch):
    # u0.bfld holds the datum and u_final.bfld the fixed point's last frame, bit for bit
    runs = []

    def spy(*args, **kwargs):
        runs.append(run_picard(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "run_picard", spy)
    path = base_config(tmp_path, **DIGEST_CONFIGS["readme_snapshots"])
    assert main(["run", path]) == 0
    u0 = _build(load_config(path))[1]
    fixed_point = runs[0][1]
    for name, field in (("u0.bfld", u0.values), ("u_final.bfld", fixed_point.values[-1])):
        snap = read_snapshot(tmp_path / "out" / name)
        assert snap.grid == u0.grid and snap.values.tobytes() == field.tobytes(), name


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
    summary = json.loads((out / "summary.json").read_text())
    kc = summary["k_constants"]
    assert json.loads((out / "kconstants.json").read_text()) == kc
    # the reference scales read the same K(T): points per K^{-1/2} on h = 2 pi / 32, and dt K
    scales = summary["reference_scales"]
    assert scales["points_per_length_T"] == kc["K"] ** -0.5 / (6.283185307179586 / 32)
    assert scales["dt_K_T"] == kc["K"] / 128
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
