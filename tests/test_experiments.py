import csv
import json
from pathlib import Path

import numpy as np
import pytest

from nqs_tfim import _blas, cli, experiments
from nqs_tfim.experiments import ExperimentConfig, KINDS, RUNNERS


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


def test_size_scaling_runner(tmp_path):
    cfg = tiny_config("size-scaling", tmp_path, L=[2, 3], n_iter=40)
    assert experiments.run_size_scaling(cfg) == 0
    curves = [p for p in tmp_path.iterdir() if p.name.startswith("infidelity_curve_")]
    assert len(curves) == 2
    records = json.loads((tmp_path / "index.json").read_text())
    assert [r["kind"] for r in records] == ["size-scaling"] * 2


def test_index_is_append_only(tmp_path):
    cfg = tiny_config("phase-diagram", tmp_path, L=[2])
    experiments.run_phase_diagram(cfg)
    experiments.run_phase_diagram(cfg)
    index = json.loads((tmp_path / "index.json").read_text())
    assert len(index) == 2
    assert index[0]["run_id"] != index[1]["run_id"]


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


def test_runners_cover_all_kinds():
    assert set(RUNNERS) == set(KINDS)


# ------------------------------------------------------------------------ cli

def test_cli_phase_diagram(tmp_path, capsys):
    rc = cli.main(["phase-diagram", "--out", str(tmp_path), "--seed", "3"])
    assert rc == 0
    assert (tmp_path / "phase_diagram.csv").exists()
    assert "phase-diagram" in capsys.readouterr().out


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
