"""End-to-end command line checks: artifacts, exit codes, config
precedence, stage isolation, and byte-level determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import assert_closed_face_chain, klein_bottle
from torusforge import cli
from torusforge.errors import (ConfigError, DisconnectedGraphError,
                               MeshValidationError, OrientationConflictError,
                               ResidualError)

FAST = {"sampler": {"kind": "torus_revolution", "N": 800}}

ARTIFACTS = ("cloud.csv", "cycles.json", "residuals.json", "mesh.json",
             "projected.json", "mesh.obj", "validation.json")


@pytest.fixture(scope="module")
def fast_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "fast.json"
    path.write_text(json.dumps(FAST))
    return path


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory, fast_cfg):
    out = tmp_path_factory.mktemp("run")
    code = cli.main(["run", "--config", str(fast_cfg),
                     "--output-dir", str(out)])
    assert code == 0
    return out


def test_run_writes_all_artifacts(finished_run):
    for name in ARTIFACTS:
        assert (finished_run / name).is_file(), name


def test_validation_report_contents(finished_run):
    report = json.loads((finished_run / "validation.json").read_text())
    assert report["euler_characteristic"] == 0
    assert report["boundary_edges"] == 0
    assert report["nonmanifold_edges"] == 0
    assert report["orientation_conflicts"] == 0
    assert report["problems"] == []
    assert report["period_defect_max"] < 1e-6


def test_default_config_is_json_ready():
    cfg = cli.default_config()
    clone = json.loads(json.dumps(cfg))
    assert clone == cfg
    assert clone["k"] == 8
    assert clone["sampler"]["kind"] == "torus_revolution"


def test_flag_beats_config_file(fast_cfg):
    args = cli.make_parser().parse_args(
        ["run", "--config", str(fast_cfg), "--k", "9"])
    cfg = cli.resolve_config(args)
    assert cfg["k"] == 9
    assert cfg["sampler"]["N"] == 800
    args = cli.make_parser().parse_args(["run", "--config", str(fast_cfg)])
    assert cli.resolve_config(args)["k"] == 8


def test_dim_flag_selects_sampler():
    for dim, kind in ((3, "torus_revolution"), (4, "standard_map"),
                      (6, "center_manifold")):
        args = cli.make_parser().parse_args(["run", "--dim", str(dim)])
        assert cli.resolve_config(args)["sampler"]["kind"] == kind
    with pytest.raises(ConfigError):
        cli.resolve_config(cli.make_parser().parse_args(["run", "--dim", "5"]))


def test_config_errors_exit_2(tmp_path, fast_cfg, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sampler": {"kind": "torus_revolution"},
                               "bogus": 1}))
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert cli.main(["run", "--config", str(fast_cfg), "--k", "1"]) == 2
    assert cli.main(["run", "--config", str(fast_cfg),
                     "--projection", "sphere"]) == 2
    # the patch mesher's knobs are gone with it
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({"patch": {"core_depth": 4}}))
    assert cli.main(["run", "--config", str(legacy)]) == 2
    # so are the penalty solver's and the thread count's
    for removed in ({"solver": {"method": "exact"}}, {"threads": 1}):
        legacy.write_text(json.dumps(removed))
        assert cli.main(["run", "--config", str(legacy)]) == 2
    # sections that are not JSON objects, and a kind that is not a name
    for malformed in ({"sampler": "center_manifold"}, {"projection": "pca"},
                      {"export": ["ply"]}, {"sampler": None},
                      {"sampler": {"kind": ["standard_map"]}}):
        bad.write_text(json.dumps(malformed))
        assert cli.main(["run", "--config", str(bad)]) == 2
    # values of the wrong type, and keys no sampler reads, named by key
    text_matrix = tmp_path / "matrix.txt"
    text_matrix.write_text("a b c\n")
    fast = dict(FAST["sampler"])
    for key, wrong in (
            ("seed", {"seed": "abc"}), ("seed", {"seed": -1}),
            ("N", {"sampler": dict(fast, N="800")}),
            ("R", {"sampler": dict(fast, R="2.0")}),
            ("mu", {"sampler": {"kind": "center_manifold", "mu": "0.01"}}),
            ("dt", {"sampler": {"kind": "center_manifold", "dt": "0.1"}}),
            ("N", {"sampler": {"kind": "standard_map", "N": 4000.5}}),
            ("typo", {"sampler": {"kind": "center_manifold", "typo": 1}}),
            ("indices", {"sampler": fast, "projection": {"indices": "abc"}}),
            ("matrix", {"sampler": fast, "projection": {
                "kind": "custom_matrix", "matrix": "x"}}),
            ("path", {"sampler": fast, "projection": {
                "kind": "custom_matrix", "path": str(text_matrix)}}),
            ("path", {"projection": {"kind": "custom_matrix", "path": 0}}),
            ("output_dir", {"output_dir": 5}),
            ("weights", {"weights": "foo"}), ("weights", {"weights": None}),
            ("weights", {"weights": [1.0, 2.0]}),
            ("weights", {"weights": 7})):
        bad.write_text(json.dumps({"output_dir": str(tmp_path / "out"),
                                   **wrong}))
        capsys.readouterr()
        assert cli.main(["run", "--config", str(bad)]) == 2, wrong
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError" and key in err["message"], err
    # a weight scheme other than the two names, of any type, stops before
    # the graph and the basis run
    for wrong in ("foo", None, [1.0, 2.0], 7):
        bad.write_text(json.dumps({"weights": wrong}))
        assert cli.main(["run", "--config", str(bad)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["stage"] == "config", err
    assert cli.main(["run", "--config", str(fast_cfg), "--seed", "-1"]) == 2
    # the one seed is the top-level key (or --seed), never a sampler key
    bad.write_text(json.dumps({"sampler": dict(fast, seed=3)}))
    assert cli.main(["run", "--config", str(bad)]) == 2


def test_disconnected_graph_exits_3(tmp_path, fast_cfg, capsys):
    code = cli.main(["run", "--config", str(fast_cfg), "--k", "2",
                     "--output-dir", str(tmp_path)])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["stage"] == "run"
    assert err["error"] == "DisconnectedGraphError"
    assert "components" in err["message"]
    sizes = err["details"]["component_sizes"]
    assert len(sizes) > 1 and sum(sizes) == 800


def test_unseparated_generators_exit_3_with_advice(tmp_path, capsys):
    """On a 300-point grid of the thin torus r = 0.2, the loop round the
    tube weighs about what the heaviest trivial cycle does. The failure
    says what to do and carries the weights it compared."""
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps({"sampler": {"kind": "torus_revolution",
                                           "N": 300, "r": 0.2}}))
    code = cli.main(["run", "--config", str(cfg),
                     "--output-dir", str(tmp_path)])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "GeneratorClassificationError"
    assert "raise k or sample more points" in err["message"]
    diag = err["details"]["diagnostics"]
    assert diag["required_ratio"] == 1.25
    assert diag["ratio"] < 1.25
    assert diag["ratio"] == pytest.approx(diag["generator_weight"]
                                          / diag["trivial_weight_max"])


def test_coincident_chart_points_named_with_weight_advice(tmp_path, capsys):
    """Uniform weights on the default --dim 4 cloud give two adjacent
    points with the same other kNN neighbours one chart position. The
    mesh stage stops before Qhull, naming both points and their
    neighbours, and the failure adds the weight scheme and the advice."""
    cfg = tmp_path / "uniform.json"
    cfg.write_text(json.dumps({"weights": "uniform"}))
    code = cli.main(["run", "--dim", "4", "--config", str(cfg),
                     "--output-dir", str(tmp_path)])
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "MeshValidationError"
    assert "chart points coincide in pairs [[1649, 3285]]" in err["message"]
    assert "Qhull" not in err["message"]
    report = err["details"]["report"]
    assert report["coincident_pairs"] == [[1649, 3285]]
    near = report["neighbors"]
    assert set(near) == {"1649", "3285"}
    assert 3285 in near["1649"] and 1649 in near["3285"]
    assert set(near["1649"]) - {3285} == set(near["3285"]) - {1649}
    assert report["weights"] == "uniform"
    assert report["advice"] == 'set "weights": "inverse_length"'
    assert not (tmp_path / "mesh.json").exists()


def test_failure_json_carries_exception_payload(capsys):
    cases = ((MeshValidationError("torn", {"boundary_edges": 3}),
              "report", {"boundary_edges": 3}),
             (ResidualError("off", {"period_defect_max": 0.5}),
              "diagnostics", {"period_defect_max": 0.5}),
             (DisconnectedGraphError([5, 7]), "component_sizes", [7, 5]),
             (OrientationConflictError("flip", [3, 1, 3]),
              "conflict_cycle", [3, 1, 3]))
    for exc, key, value in cases:
        assert cli._fail("mesh", exc, 3) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["details"] == {key: value}
    cli._fail("config", ConfigError("bad"), 2)
    assert "details" not in json.loads(capsys.readouterr().err)


def test_stage_isolation(tmp_path, fast_cfg):
    """Each stage run as its own process-style invocation picks up the
    previous stage's artifacts from disk."""
    common = ["--config", str(fast_cfg), "--output-dir", str(tmp_path)]
    for stage in ("sample", "mesh", "project", "export", "validate"):
        assert cli.main([stage] + common) == 0, stage
    for name in ARTIFACTS:
        assert (tmp_path / name).is_file(), name


def test_byte_determinism_across_runs(tmp_path_factory, fast_cfg):
    dirs = [tmp_path_factory.mktemp(f"det{i}") for i in range(2)]
    for out in dirs:
        assert cli.main(["run", "--config", str(fast_cfg),
                         "--output-dir", str(out)]) == 0
    for name in ("mesh.json", "validation.json", "cloud.csv",
                 "projected.json", "mesh.obj"):
        blobs = [(d / name).read_bytes() for d in dirs]
        assert blobs[0] == blobs[1], name


def test_validate_flags_torn_mesh(tmp_path, finished_run):
    payload = json.loads((finished_run / "mesh.json").read_text())
    payload["triangles"] = payload["triangles"][1:]
    torn = tmp_path / "torn.json"
    torn.write_text(json.dumps(payload))
    code = cli.main(["validate", str(torn), "--output-dir", str(tmp_path)])
    assert code == 4
    report = json.loads((tmp_path / "validation.json").read_text())
    assert report["euler_characteristic"] == -1
    assert report["boundary_edges"] == 3
    assert report["problems"]


@pytest.mark.parametrize("bad_id", [-1, 99999])
def test_validate_rejects_ids_outside_points(tmp_path, capsys,
                                             finished_run, bad_id):
    """A triangle vertex id that indexes no point fails loading, so
    neither validate nor project reads a wrong or missing vertex."""
    payload = json.loads((finished_run / "mesh.json").read_text())
    payload["triangles"] = [[bad_id if v == 0 else v for v in tri]
                            for tri in payload["triangles"]]
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(payload))
    for argv in (["validate", str(path)], ["project"]):
        capsys.readouterr()
        assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 4
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "MeshValidationError"
        assert f"[{bad_id}]" in err["details"]["report"]["problems"][0]
    assert not (tmp_path / "validation.json").exists()


def test_validate_flags_duplicated_face(tmp_path, finished_run):
    payload = json.loads((finished_run / "mesh.json").read_text())
    payload["triangles"].append(payload["triangles"][0])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["validate", str(path), "--output-dir", str(tmp_path)])
    assert code == 4
    report = json.loads((tmp_path / "validation.json").read_text())
    assert report["nonmanifold_edges"] == 3
    assert report["orientation_conflicts"] == 1
    assert any(p.startswith("orientation:") for p in report["problems"])


def test_validate_flags_nonorientable_mesh(tmp_path):
    ang = np.linspace(0, 2 * np.pi, 5, endpoint=False)
    pts = np.column_stack([np.cos(ang), np.sin(ang), 0.1 * np.arange(5)])
    payload = {"dim": 3, "provenance": "external",
               "points": pts.tolist(),
               "triangles": [[0, 1, 2], [1, 2, 3], [2, 3, 4],
                             [3, 4, 0], [4, 0, 1]],
               "report": {}}
    path = tmp_path / "strip.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["validate", str(path), "--output-dir", str(tmp_path)])
    assert code == 4
    report = json.loads((tmp_path / "validation.json").read_text())
    assert report["orientation_conflicts"] == 1


def test_validate_flags_closed_klein_bottle(tmp_path, capsys):
    """A closed Klein bottle passes every edge and Euler gate (chi = 0),
    so only the orientability check can reject it."""
    tris = klein_bottle()
    pts = np.random.default_rng(0).normal(size=(36, 3))
    (tmp_path / "mesh.json").write_text(json.dumps(
        {"dim": 3, "points": pts.tolist(), "triangles": tris}))
    code = cli.main(["validate", "--output-dir", str(tmp_path)])
    assert code == 4
    report = json.loads((tmp_path / "validation.json").read_text())
    assert report["euler_characteristic"] == 0
    assert report["boundary_edges"] == report["nonmanifold_edges"] == 0
    assert report["orientation_conflicts"] == 1
    assert len(report["problems"]) == 1
    # projecting orients the mesh, and the failure names the face chain
    capsys.readouterr()
    assert cli.main(["project", "--output-dir", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "OrientationConflictError"
    assert_closed_face_chain(tris, err["details"]["conflict_cycle"])


def test_projection_matrix_flag(tmp_path, finished_run, fast_cfg):
    mat = [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, -0.5, 0.5]]
    matpath = tmp_path / "proj.json"
    matpath.write_text(json.dumps(mat))
    code = cli.main(["project", "--config", str(fast_cfg),
                     "--output-dir", str(finished_run),
                     "--projection", f"matrix:{matpath}"])
    assert code == 0
    mesh = json.loads((finished_run / "mesh.json").read_text())
    proj = json.loads((finished_run / "projected.json").read_text())
    expected = np.asarray(mesh["points"]) @ np.asarray(mat).T
    assert np.allclose(np.asarray(proj["points"]), expected, atol=0)
    # restore the default projection artifact for later tests
    assert cli.main(["project", "--config", str(fast_cfg),
                     "--output-dir", str(finished_run)]) == 0


def test_pca_projection_flag(tmp_path, fast_cfg):
    code = cli.main(["run", "--config", str(fast_cfg), "--projection", "pca",
                     "--output-dir", str(tmp_path)])
    assert code == 0
    proj = json.loads((tmp_path / "projected.json").read_text())
    assert 0 < proj["captured_variance"] <= 1


def test_ply_export_flag(tmp_path, fast_cfg):
    code = cli.main(["run", "--config", str(fast_cfg), "--format", "ply",
                     "--output-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "mesh.ply").is_file()
    assert not (tmp_path / "mesh.obj").exists()


def test_cli_import_leaves_scipy_integrate_unloaded():
    """No CLI stage integrates, so importing the CLI must not pay for
    scipy.integrate; `cr3bp.integrate` imports it when called."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, torusforge.cli; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def _run_python(code, cwd=None):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, *code], capture_output=True,
                          text=True, timeout=120, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src))


def test_restage_commands_run_without_scipy(tmp_path, finished_run):
    """Importing the CLI or the package, and the project, export,
    validate and sample commands, load no scipy module; the package's
    lazy names all resolve and are listed by dir()."""
    (tmp_path / "mesh.json").write_bytes(
        (finished_run / "mesh.json").read_bytes())
    out = str(tmp_path)
    code = f"""
import sys
def scipy_loaded():
    return [m for m in sys.modules if m.split('.')[0] == 'scipy']
import torusforge.cli
assert not scipy_loaded(), scipy_loaded()
for argv in (["project", "--projection", "pca"], ["export", "--format", "ply"],
             ["validate"], ["sample", "--dim", "6"]):
    assert torusforge.cli.main(argv + ["--output-dir", {out!r}]) == 0, argv
assert not scipy_loaded(), scipy_loaded()
print("ok")
"""
    run = _run_python(["-c", code])
    assert run.stdout.strip() == "ok", run.stderr
    assert (tmp_path / "mesh.ply").is_file()
    assert json.loads((tmp_path / "validation.json").read_text())[
        "problems"] == []
    code = """
import sys, torusforge
assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']
assert set(torusforge.__all__) <= set(dir(torusforge))
import importlib
from torusforge import _HOME
for name in torusforge.__all__:
    home = importlib.import_module('torusforge.' + _HOME[name])
    assert getattr(torusforge, name) is getattr(home, name), name
print(len(torusforge.__all__))
"""
    run = _run_python(["-c", code])
    assert run.stdout.strip() == "47", run.stderr


def test_module_entry_point_runs_without_warnings(tmp_path):
    """`python -m torusforge.cli` finds no half-imported copy of the CLI
    in sys.modules, so runpy has nothing to warn about."""
    run = _run_python(["-W", "error::RuntimeWarning", "-m", "torusforge.cli",
                       "--help"], cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert "usage: torusforge" in run.stdout
