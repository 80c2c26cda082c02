import csv
import itertools
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from nqs_tfim import _blas, cli, exact, experiments, sr
from nqs_tfim.experiments import ExperimentConfig, KINDS, RUNNERS
from nqs_tfim.hamiltonian import RotatedTfim


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def tiny_config(kind, out_dir, **kw):
    base = dict(
        kind=kind, L=[3], lam=[1.5], theta=[0.0], alpha=[1.0],
        eta=0.05, n_iter=30, n_realizations=2, seed=7, out_dir=str(out_dir),
    )
    base.update(kw)
    return ExperimentConfig(**base)


# --------------------------------------------------------------------- config

def test_expand_theta_strings():
    vals = experiments._expand_theta(["0.25pi", "pi", "0.5", 1.0])
    assert vals == pytest.approx([0.25 * np.pi, np.pi, 0.5, 1.0])


def test_config_normalizes_theta_strings():
    cfg = ExperimentConfig(kind="uniformity", theta=["0.25pi"])
    assert cfg.theta == pytest.approx([0.25 * np.pi])
    assert all(isinstance(t, float) for t in cfg.theta)


def test_config_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nonsense")


def test_config_requires_eta_or_search():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="uniformity", eta=None, search_trials=0)


def test_load_config_roundtrip(tmp_path):
    doc = """
kind: uniformity
seed: 42
grid:
  L: [4]
  lambda: [0.5, 1.5]
  theta: [0, 0.25pi]
rbm:
  alpha: 2.0
  init_scale: 0.05
sr:
  eta: search
  search_trials: 5
  search_n_iter: 50
  n_iter: 120
  n_realizations: 4
output:
  dir: somewhere
"""
    path = tmp_path / "cfg.yaml"
    path.write_text(doc)
    cfg = experiments.load_config(path)
    assert cfg.kind == "uniformity"
    assert cfg.L == [4]
    assert cfg.lam == [0.5, 1.5]
    assert cfg.theta == pytest.approx([0.0, 0.25 * np.pi])
    assert cfg.alpha == [2.0]
    assert cfg.init_scale == 0.05
    assert cfg.eta is None
    assert cfg.search_trials == 5
    assert cfg.search_n_iter == 50
    assert cfg.n_iter == 120
    assert cfg.n_realizations == 4
    assert cfg.seed == 42
    assert cfg.out_dir == "somewhere"


def test_load_config_overrides(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("kind: phase-diagram\nseed: 1\n")
    cfg = experiments.load_config(path, out_dir="elsewhere", seed=99)
    assert cfg.out_dir == "elsewhere"
    assert cfg.seed == 99
    # None overrides are ignored
    cfg2 = experiments.load_config(path, out_dir=None)
    assert cfg2.out_dir == "results"


def test_shipped_default_configs_exist_and_load():
    for kind in KINDS:
        for profile in ("paper", "ci"):
            path = experiments.default_config_path(kind, profile)
            assert path.exists(), path
            cfg = experiments.load_config(path, kind=kind)
            assert cfg.kind == kind


def test_shipped_configs_load_alike_with_both_yaml_loaders(monkeypatch):
    yaml = pytest.importorskip("yaml")
    if not yaml.__with_libyaml__:
        pytest.skip("PyYAML built without libyaml")
    assert experiments.YAML_LOADER is yaml.CSafeLoader
    paths = sorted(experiments.default_config_path("uniformity", "ci").parent.glob("*.yaml"))
    assert len(paths) == 2 * len(KINDS)
    loaded = {}
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        monkeypatch.setattr(experiments, "YAML_LOADER", loader)
        loaded[loader] = [experiments.load_config(path) for path in paths]
    assert loaded[yaml.SafeLoader] == loaded[yaml.CSafeLoader]
    # the same value types too (1 == 1.0, but the reprs differ)
    assert list(map(repr, loaded[yaml.SafeLoader])) == list(map(repr, loaded[yaml.CSafeLoader]))


def write_yaml(tmp_path, text):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    return path


@pytest.mark.parametrize("text, named", [
    ("kind: uniformity\nseeds: 3\n", "seeds"),
    ("kind: uniformity\nsr:\n  n_iters: 5\n", "sr.n_iters"),
    ("kind: uniformity\ngrid:\n  L: [4]\n  lamda: [1.0]\n", "grid.lamda"),
    ("kind: uniformity\nrbm:\n  alpha: 1.0\n  hidden: 4\n", "rbm.hidden"),
    ("kind: uniformity\noutput:\n  directory: x\n", "output.directory"),
], ids=["top", "sr", "grid", "rbm", "output"])
def test_load_config_names_unknown_keys(tmp_path, text, named):
    with pytest.raises(ValueError, match=f"unknown config key.*{named}"):
        experiments.load_config(write_yaml(tmp_path, text))


def test_load_config_rejects_a_section_that_is_not_a_mapping(tmp_path):
    with pytest.raises(ValueError, match="sr must be a mapping"):
        experiments.load_config(write_yaml(tmp_path, "kind: uniformity\nsr: 5\n"))


@pytest.mark.parametrize("text", [
    "kind: uniformity\nseed: -1\n",
    "kind: uniformity\nsr:\n  n_iter: 0\n",
    "kind: uniformity\nsr:\n  n_realizations: 0\n",
    "kind: uniformity\nsr:\n  search_n_iter: 0\n",
], ids=["seed", "n_iter", "n_realizations", "search_n_iter"])
def test_load_config_rejects_out_of_range_values(tmp_path, text):
    with pytest.raises(ValueError):
        experiments.load_config(write_yaml(tmp_path, text))


@pytest.mark.parametrize("theta, expected", [(0.3, 0.3), ("0.5pi", 0.5 * np.pi)],
                         ids=["radians", "pi-string"])
def test_load_config_reads_a_scalar_list_key_as_one_entry(tmp_path, theta, expected):
    cfg = experiments.load_config(write_yaml(
        tmp_path, f"kind: uniformity\ngrid:\n  L: 4\n  lambda: 1\n  theta: {theta}\n"))
    assert cfg.L == [4]
    assert cfg.lam == [1.0]
    assert cfg.theta == pytest.approx([expected])


@pytest.mark.parametrize("text, named", [
    ("sr:\n  eta: 0\n", "eta must"),
    ("sr:\n  epsilon: 0\n", "epsilon must"),
    ("grid:\n  L: [0]\n", "L must"),
    ("grid:\n  L: [30]\n", "L must"),
    ("rbm:\n  alpha: [0]\n", "alpha="),
    ("rbm:\n  alpha: []\n", "alpha needs"),
    ("sr:\n  search_trials: -2\n", "search_trials must"),
    ("sr:\n  eta: 0.05\n  search_trials: 2\n", "not both.*sr.eta, sr.search_trials"),
    ("sr:\n  search_n_iter: 50\n", "sr.search_n_iter, sr.search_trials"),
], ids=["eta", "epsilon", "L-0", "L-30", "alpha", "alpha-empty", "search_trials",
        "eta-and-search", "search_n_iter-without-search"])
def test_load_config_refuses_values_that_fail_every_point(tmp_path, text, named):
    with pytest.raises(ValueError, match=named):
        experiments.load_config(write_yaml(tmp_path, "kind: uniformity\n" + text))


@pytest.mark.parametrize("text, message", [
    ("grid:\n  lambda: []\n", "lam needs at least one value (config key grid.lambda)"),
    ("grid:\n  L: [99]\n",
     f"L must be in [1, {exact.SOLVER_MAX_SITES}], got 99 (config key grid.L)"),
    ("sr:\n  n_iter: 0\n", "n_iter must be >= 1, got 0 (config key sr.n_iter)"),
    ("grid:\n  theta: [0.5pi, 1.5707963267948966]\n",
     "theta repeats a value; each point runs once, got "
     "[1.5707963267948966, 1.5707963267948966] (config key grid.theta)"),
], ids=["grid.lambda", "grid.L", "sr.n_iter", "grid.theta-repeated"])
def test_range_check_names_the_field_and_its_yaml_key(tmp_path, text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        experiments.load_config(write_yaml(tmp_path, "kind: uniformity\n" + text))


@pytest.mark.parametrize("text, named", [
    ("grid:\n  L: [abc]\n", "grid.L"),
    ("sr:\n  search_n_iter: null\n", "sr.search_n_iter"),
    ("seed: one\n", "seed"),
], ids=["L", "search_n_iter", "seed"])
def test_load_config_names_a_value_that_does_not_convert(tmp_path, text, named):
    with pytest.raises(ValueError, match=f"config key {named} cannot read"):
        experiments.load_config(write_yaml(tmp_path, "kind: uniformity\n" + text))


def test_overrides_are_validated(tmp_path):
    path = write_yaml(tmp_path, "kind: uniformity\nseed: 1\n")
    with pytest.raises(ValueError, match="seed"):
        experiments.load_config(path, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        cli.main(["uniformity", "--config", str(path), "--seed", "-1",
                  "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_pi_compare_config_may_not_set_theta(tmp_path):
    path = write_yaml(tmp_path, "kind: pi-compare\ngrid:\n  theta: [0.3]\n")
    with pytest.raises(ValueError, match="theta"):
        experiments.load_config(path)
    with pytest.raises(ValueError, match="theta"):
        experiments.load_config(write_yaml(tmp_path, "grid:\n  theta: [0.3]\n"),
                                kind="pi-compare")


TWO_VALUES = {"L": [3, 4], "lam": [0.5, 1.5], "theta": [0.0, 0.3], "alpha": [1.0, 2.0]}


def test_swept_axes_name_every_kind():
    assert set(experiments.SWEPT_AXES) == set(KINDS)
    for axes in experiments.SWEPT_AXES.values():
        assert set(axes) <= set(TWO_VALUES)


@pytest.mark.parametrize("kind, axis", [
    (kind, axis) for kind in KINDS for axis in TWO_VALUES
    if axis not in experiments.SWEPT_AXES[kind]])
def test_config_refuses_a_second_value_on_an_axis_the_kind_does_not_sweep(
        tmp_path, kind, axis):
    with pytest.raises(ValueError, match=re.escape(
            f"(config key {experiments.FIELD_KEYS[axis]})")):
        tiny_config(kind, tmp_path, **{axis: TWO_VALUES[axis]})


@pytest.mark.parametrize("axis, values", [
    ("L", [3, 4, 3]), ("lam", [0.5, 0.5]), ("theta", [0.0, 0.0]),
    ("theta", ["0.5pi", 0.5 * np.pi]), ("alpha", [1.0, 2.0, 1.0])],
    ids=["L", "lam", "theta", "theta-pi-string", "alpha"])
def test_config_refuses_a_repeated_grid_value(tmp_path, axis, values):
    # every kind refuses it, whether it sweeps the axis or not
    key = re.escape(experiments.FIELD_KEYS[axis])
    for kind in KINDS:
        with pytest.raises(ValueError, match=rf"{axis} repeats a value.*\(config key {key}\)"):
            tiny_config(kind, tmp_path, **{axis: values})


def test_config_file_of_another_kind_is_refused(tmp_path):
    path = experiments.default_config_path("cumulant", "ci")
    with pytest.raises(ValueError, match="config key kind is 'cumulant'.*degeneracy"):
        experiments.load_config(path, kind="degeneracy")
    with pytest.raises(ValueError, match="config key kind"):
        cli.main(["degeneracy", "--config", str(path), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()
    assert experiments.load_config(path, kind="cumulant").kind == "cumulant"


# -------------------------------------------------------------------- runners

def test_phase_diagram_runner(tmp_path):
    cfg = tiny_config("phase-diagram", tmp_path, L=[2, 3],
                      lam=[0.5, 1.5], theta=[0.0, 0.25 * np.pi])
    assert experiments.run_phase_diagram(cfg) == 0
    rows = read_csv(tmp_path / "phase_diagram.csv")
    assert rows[0] == ["L", "lambda", "theta", "E0", "E1", "gap", "near_degenerate"]
    assert len(rows) == 1 + 2 * 2 * 2
    index = json.loads((tmp_path / "index.json").read_text())
    assert index[0]["kind"] == "phase-diagram"
    assert index[0]["metrics"]["n_failures"] == 0
    assert index[0]["blas_threads"] == {
        name: get() for name, (_, get) in _blas.openblas_libraries().items()}


def test_degeneracy_runner(tmp_path):
    cfg = tiny_config("degeneracy", tmp_path, lam=[0.5],
                      theta=[0.25 * np.pi], n_iter=40)
    assert experiments.run_degeneracy_study(cfg) == 0
    points = read_csv(tmp_path / "degeneracy_points.csv")
    reals = read_csv(tmp_path / "degeneracy_realizations.csv")
    assert len(points) == 2      # header + one theta
    assert len(reals) == 1 + 2   # header + two realizations
    assert any(p.name.startswith("sorted_probs_") for p in tmp_path.iterdir())


def test_sorted_probabilities_csv_is_ascending(tmp_path):
    # rank 0 is the smallest Born weight, the last rank the largest
    cfg = tiny_config("degeneracy", tmp_path, lam=[0.5],
                      theta=[0.25 * np.pi], n_iter=40)
    assert experiments.run_degeneracy_study(cfg) == 0
    (path,) = tmp_path.glob("sorted_probs_*.csv")
    rows = read_csv(path)
    assert rows[0] == ["rank", "probability", "sign"]
    assert [int(r[0]) for r in rows[1:]] == list(range(2**3))
    probs = [float(r[1]) for r in rows[1:]]
    assert probs == sorted(probs)
    assert probs[0] < probs[-1]


def test_pi_compare_runner(tmp_path):
    cfg = tiny_config("pi-compare", tmp_path, n_iter=60)
    assert experiments.run_pi_rotation_compare(cfg) == 0
    reals = read_csv(tmp_path / "pi_compare_realizations.csv")
    assert len(reals) == 1 + 2 * 2   # two thetas x two realizations
    index = json.loads((tmp_path / "index.json").read_text())
    rec = index[0]
    # the parameter-mapped theta=0 solution evaluated on H(pi) should be a
    # sensible variational energy, not NaN
    mapped = rec["metrics"]["mapped_theta0_energy_on_Hpi"]
    e0 = rec["metrics"]["exact_E0"]
    assert np.isfinite(mapped)
    assert mapped >= e0 - 1e-8


def test_uniformity_runner(tmp_path):
    cfg = tiny_config("uniformity", tmp_path, lam=[1.5],
                      theta=[0.0, 0.1], n_iter=40)
    assert experiments.run_uniformity_sweep(cfg) == 0
    best = read_csv(tmp_path / "uniformity_best.csv")
    assert len(best) == 1 + 2
    reals = read_csv(tmp_path / "uniformity_realizations.csv")
    assert len(reals) == 1 + 2 * 2


def test_cumulant_runner(tmp_path):
    cfg = tiny_config("cumulant", tmp_path, n_iter=60)
    assert experiments.run_cumulant_analysis(cfg) == 0
    curves = [p for p in tmp_path.iterdir() if p.name.startswith("infidelity_curve_")]
    coeffs = [p for p in tmp_path.iterdir() if p.name.startswith("coefficients_")]
    ckpts = [p for p in tmp_path.iterdir() if p.name.startswith("rbm_")]
    assert len(curves) == len(coeffs) == len(ckpts) == 1
    rows = read_csv(curves[0])
    assert rows[0] == ["N", "infidelity_exact_trunc", "infidelity_rbm_trunc", "n_var"]
    assert len(rows) == 1 + 2**3   # full N grid for small L
    # checkpoint is valid JSON with parameter data
    doc = json.loads(ckpts[0].read_text())
    assert "a" in doc and "W" in doc


def test_cumulant_points_keep_grid_order_and_seeds(tmp_path):
    cfg = tiny_config("cumulant", tmp_path, theta=[0.0, 0.3], alpha=[1.0, 2.0])
    assert experiments.run_cumulant_analysis(cfg) == 0
    records = json.loads((tmp_path / "index.json").read_text())
    assert [(r["key"]["theta"], r["key"]["alpha"]) for r in records] == \
           list(itertools.product(cfg.theta, cfg.alpha))
    for p, rec in enumerate(records):
        meta = json.loads(Path(rec["artifacts"][2]).read_text())["meta"]
        point_seed = sr.derive_seed(cfg.seed, p)
        assert meta["seed"] in [sr.derive_seed(point_seed, i)
                                for i in range(cfg.n_realizations)]


def test_search_sets_each_points_eta(tmp_path):
    # with eta: search, a point trains with the eta of the best trial of
    # sr.hyperparameter_search run from that point's seed
    cfg = tiny_config("uniformity", tmp_path, theta=[0.0, 0.3], eta=None,
                      search_trials=3, search_n_iter=10, n_iter=20)
    assert experiments.run_uniformity_sweep(cfg) == 0
    rows = read_csv(tmp_path / "uniformity_best.csv")
    etas = [float(row[rows[0].index("eta")]) for row in rows[1:]]
    search_base = sr.SrConfig(epsilon=cfg.epsilon, n_iter=cfg.search_n_iter,
                              alpha=cfg.alpha[0], init_scale=cfg.init_scale)
    for p, (theta, eta) in enumerate(zip(cfg.theta, etas)):
        best = sr.hyperparameter_search(RotatedTfim(3, 1.5, theta), cfg.search_trials,
                                        sr.derive_seed(cfg.seed, p), search_base)
        assert eta == best.config.eta
        assert sr.ETA_SEARCH_RANGE[0] <= eta <= sr.ETA_SEARCH_RANGE[1]
    assert etas[0] != etas[1]


def test_size_scaling_runner(tmp_path):
    cfg = tiny_config("size-scaling", tmp_path, L=[2, 3], n_iter=40)
    assert RUNNERS["size-scaling"](cfg) == 0
    curves = [p for p in tmp_path.iterdir() if p.name.startswith("infidelity_curve_")]
    assert len(curves) == 2
    records = json.loads((tmp_path / "index.json").read_text())
    assert [r["kind"] for r in records] == ["size-scaling"] * 2


def test_index_is_append_only(tmp_path):
    # a run with another master seed adds a record and keeps the first
    experiments.run_phase_diagram(tiny_config("phase-diagram", tmp_path, L=[2]))
    experiments.run_phase_diagram(tiny_config("phase-diagram", tmp_path, L=[2], seed=8))
    index = json.loads((tmp_path / "index.json").read_text())
    assert len(index) == 2
    assert index[0]["run_id"] != index[1]["run_id"]


@pytest.mark.parametrize("kind, grid", [("phase-diagram", {"L": [2]}),
                                        ("size-scaling", {"L": [2, 3], "n_iter": 20})])
def test_rerun_replaces_its_index_records_in_place(tmp_path, kind, grid):
    cfg = tiny_config(kind, tmp_path, **grid)
    other = tiny_config(kind, tmp_path, **grid, seed=8)
    assert RUNNERS[kind](cfg) == 0
    first = (tmp_path / "index.json").read_bytes()
    assert RUNNERS[kind](cfg) == 0
    assert (tmp_path / "index.json").read_bytes() == first
    # between two runs of one seed, another seed's records stay after them
    assert RUNNERS[kind](other) == 0
    assert RUNNERS[kind](cfg) == 0
    index = json.loads((tmp_path / "index.json").read_text())
    assert index[:len(index) // 2] == json.loads(first)


def test_run_ids_repeat_across_fresh_directories(tmp_path):
    for sub in ("a", "b"):
        experiments.run_phase_diagram(tiny_config("phase-diagram", tmp_path / sub, L=[2]))
    ids = [[rec["run_id"] for rec in json.loads((tmp_path / sub / "index.json").read_text())]
           for sub in ("a", "b")]
    assert ids[0] == ids[1]


def test_failed_index_write_keeps_previous_index(tmp_path, monkeypatch):
    cfg = tiny_config("phase-diagram", tmp_path, L=[2])
    experiments.run_phase_diagram(cfg)
    before = (tmp_path / "index.json").read_text()

    def half_write(self, text, *args, **kwargs):
        with open(self, "w") as fh:
            fh.write(text[: len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", half_write)
    with pytest.raises(OSError, match="disk full"):
        experiments.run_phase_diagram(cfg)
    assert (tmp_path / "index.json").read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["index.json", "phase_diagram.csv"]


def test_runner_rerun_is_deterministic(tmp_path):
    cfg1 = tiny_config("uniformity", tmp_path / "a", n_iter=40)
    cfg2 = tiny_config("uniformity", tmp_path / "b", n_iter=40)
    experiments.run_uniformity_sweep(cfg1)
    experiments.run_uniformity_sweep(cfg2)
    assert (tmp_path / "a" / "uniformity_best.csv").read_text() == \
           (tmp_path / "b" / "uniformity_best.csv").read_text()


def failing_ground_states(monkeypatch, bad_theta):
    """Make exact.ground_states raise for one angle only."""
    real = exact.ground_states

    def fake(h, *args, **kwargs):
        if h.theta == bad_theta:
            raise RuntimeError("injected ED failure")
        return real(h, *args, **kwargs)

    monkeypatch.setattr(exact, "ground_states", fake)


@pytest.mark.parametrize("kind, csv_name", [
    ("degeneracy", "degeneracy_realizations.csv"),
    ("pi-compare", "pi_compare_realizations.csv"),
    ("uniformity", "uniformity_realizations.csv"),
])
@pytest.mark.parametrize("bad", [0, 1])
def test_runner_survives_an_ed_failure(tmp_path, monkeypatch, caplog, kind, csv_name, bad):
    thetas = [0.0, np.pi] if kind == "pi-compare" else [0.0, 0.1]
    failing_ground_states(monkeypatch, thetas[bad])
    cfg = tiny_config(kind, tmp_path, theta=[0.0] if kind == "pi-compare" else thetas)
    with caplog.at_level(logging.WARNING, logger="nqs_tfim.experiments"):
        assert RUNNERS[kind](cfg) == 1
    assert "injected ED failure" in caplog.text
    rows = read_csv(tmp_path / csv_name)
    theta_col = rows[0].index("theta")
    assert {float(r[theta_col]) for r in rows[1:]} == {thetas[1 - bad]}
    assert len(rows) == 1 + cfg.n_realizations
    index = json.loads((tmp_path / "index.json").read_text())
    assert index[-1]["metrics"]["n_failures"] == 1
    if kind == "pi-compare":
        # E0 comes from the point that ran; the mapped energy needs theta = 0
        metrics = index[-1]["metrics"]
        kept = exact.ground_states(RotatedTfim(3, 1.5, thetas[1 - bad]), k=1)
        assert metrics["exact_E0"] == kept.energies[0]
        assert np.isnan(metrics["mapped_theta0_energy_on_Hpi"]) == (bad == 0)


def test_every_failure_is_logged(tmp_path, monkeypatch, caplog):
    # two identical failures, one per run of one config, give two records
    # (a warning filter would print the repeated message once)
    failing_ground_states(monkeypatch, 0.0)
    cfg = tiny_config("phase-diagram", tmp_path, L=[2], theta=[0.0])
    with caplog.at_level(logging.WARNING, logger="nqs_tfim.experiments"):
        assert experiments.run_phase_diagram(cfg) == 1
        assert experiments.run_phase_diagram(cfg) == 1
    records = [r for r in caplog.records if "injected ED failure" in r.getMessage()]
    assert len(records) == 2
    assert records[0].getMessage() == records[1].getMessage()
    assert all(r.levelno == logging.WARNING for r in records)


def test_runners_cover_all_kinds():
    assert set(RUNNERS) == set(KINDS)


# ------------------------------------------------------------------------ cli

def test_cli_phase_diagram(tmp_path, capsys):
    rc = cli.main(["phase-diagram", "--out", str(tmp_path), "--seed", "3"])
    assert rc == 0
    assert (tmp_path / "phase_diagram.csv").exists()
    assert "phase-diagram" in capsys.readouterr().out


# the 26 files of the six shipped ci configs, in sorted order per kind
CI_FILES = {
    "phase-diagram": ["index.json", "phase_diagram.csv"],
    "degeneracy": ["degeneracy_points.csv", "degeneracy_realizations.csv", "index.json",
                   "sorted_probs_L6_lam0.5_theta0.000000.csv",
                   "sorted_probs_L6_lam0.5_theta0.785398.csv",
                   "sorted_probs_L6_lam0.5_theta1.570796.csv"],
    "pi-compare": ["index.json", "pi_compare_realizations.csv",
                   "sorted_amplitudes_theta0.000000.csv",
                   "sorted_amplitudes_theta3.141593.csv"],
    "uniformity": ["index.json", "uniformity_best.csv", "uniformity_realizations.csv"],
    "cumulant": ["coefficients_L6_lam1.5_theta0.628319_alpha1.csv", "index.json",
                 "infidelity_curve_L6_lam1.5_theta0.628319_alpha1.csv",
                 "rbm_L6_lam1.5_theta0.628319_alpha1.json"],
    "size-scaling": ["coefficients_L4_lam1.5_theta0.125664_alpha1.csv",
                     "coefficients_L6_lam1.5_theta0.125664_alpha1.csv", "index.json",
                     "infidelity_curve_L4_lam1.5_theta0.125664_alpha1.csv",
                     "infidelity_curve_L6_lam1.5_theta0.125664_alpha1.csv",
                     "rbm_L4_lam1.5_theta0.125664_alpha1.json",
                     "rbm_L6_lam1.5_theta0.125664_alpha1.json"],
}


@pytest.mark.parametrize("kind", KINDS)
def test_cli_runs_each_shipped_ci_config(tmp_path, kind):
    assert cli.main([kind, "--profile", "ci", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == CI_FILES[kind]


def test_cli_custom_config(tmp_path):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(
        "grid:\n  L: [2]\n  lambda: [1.5]\n  theta: [0]\n"
        "sr:\n  eta: 0.05\n  n_iter: 20\n  n_realizations: 1\n"
    )
    out = tmp_path / "res"
    rc = cli.main(["uniformity", "--config", str(cfg_file), "--out", str(out)])
    assert rc == 0
    assert (out / "uniformity_best.csv").exists()


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        cli.main(["not-a-thing"])


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
