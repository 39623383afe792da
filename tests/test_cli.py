"""End-to-end command line checks: artifacts, exit codes, config
precedence, stage isolation, and byte-level determinism."""

import inspect
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from conftest import assert_closed_face_chain, klein_bottle
from torusforge import cli
from torusforge.errors import (ConfigError, DisconnectedGraphError,
                               MeshValidationError, OrientationConflictError,
                               ResidualError)
from torusforge.samplers import (sample_center_manifold_torus,
                                 sample_standard_map_torus,
                                 sample_torus_revolution)

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


@pytest.mark.parametrize("kind", sorted(cli._SAMPLER_DEFAULTS))
def test_sampler_defaults_name_sampler_parameters(kind):
    """Each sampler config key is a parameter of its library sampler, and
    the sampler gives it no default of its own."""
    params = inspect.signature(cli._SAMPLERS[kind]).parameters
    for key in cli._SAMPLER_DEFAULTS[kind]:
        assert key in params, key
        assert params[key].default is inspect.Parameter.empty, key


@pytest.mark.parametrize("dim, direct", [
    (3, lambda: sample_torus_revolution(2.0, 0.5, 2000, 0, "grid")),
    (4, lambda: sample_standard_map_torus(
        0.3, 0.3, 0.0, 0.0, 0.6180339887498949, 0.41421356237309515, 4000)),
    (6, lambda: sample_center_manifold_torus(0.01215, "L2", 5e-3, 5e-3,
                                             6000))])
def test_build_cloud_defaults_match_library_call(dim, direct):
    """The default config of each --dim samples the same cloud as the
    library sampler called with the documented default values."""
    cfg = cli.resolve_config(cli.make_parser().parse_args(
        ["run", "--dim", str(dim)]))
    assert np.array_equal(cli.build_cloud(cfg).points, direct().points)


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
    # values of the wrong type, keys no sampler reads, names no sampler
    # knows, and the removed weights, color_mode, inline matrix, dt and
    # projection indices keys, named by key before any stage runs
    text_matrix = tmp_path / "matrix.txt"
    text_matrix.write_text("a b c\n")
    numeric_text = tmp_path / "eye.txt"
    numeric_text.write_text("1 0 0\n0 1 0\n0 0 1\n")
    fast = dict(FAST["sampler"])
    cm = {"kind": "center_manifold"}
    for key, wrong in (
            ("seed", {"seed": "abc"}), ("seed", {"seed": -1}),
            ("N", {"sampler": dict(fast, N="800")}),
            ("R", {"sampler": dict(fast, R="2.0")}),
            ("mu", {"sampler": dict(cm, mu="0.01")}),
            ("dt", {"sampler": dict(cm, dt="0.1")}),
            ("dt", {"sampler": dict(cm, dt=0.1)}),
            ("point", {"sampler": dict(cm, point=5)}),
            ("point", {"sampler": dict(cm, point="L4")}),
            ("distribution", {"sampler": dict(fast,
                                              distribution="hexagonal")}),
            ("N", {"sampler": {"kind": "standard_map", "N": 4000.5}}),
            ("typo", {"sampler": dict(cm, typo=1)}),
            ("indices", {"sampler": fast, "projection": {"indices": "abc"}}),
            ("matrix", {"sampler": fast, "projection": {
                "kind": "custom_matrix", "matrix": "x"}}),
            ("matrix", {"sampler": fast, "projection": {
                "kind": "custom_matrix", "matrix": np.eye(3).tolist()}}),
            ("path", {"sampler": fast, "projection": {
                "kind": "custom_matrix", "path": str(text_matrix)}}),
            ("path", {"sampler": fast, "projection": {
                "kind": "custom_matrix", "path": str(numeric_text)}}),
            ("path", {"projection": {"kind": "custom_matrix", "path": 0}}),
            ("output_dir", {"output_dir": 5}),
            ("weights", {"weights": "foo"}), ("weights", {"weights": None}),
            ("weights", {"weights": [1.0, 2.0]}),
            ("weights", {"weights": 7}),
            ("weights", {"weights": "uniform"}),
            ("weights", {"weights": "inverse_length"}),
            ("color_mode", {"export": {"color_mode": "sidedness"}}),
            ("color_mode", {"export": {"color_mode": "none"}}),
            ("colour_mode", {"export": {"colour_mode": "none"}}),
            ("indeces", {"projection": {"kind": "coordinate_select",
                                        "indeces": [0, 2, 1]}}),
            ("indices", {"sampler": fast, "projection": {"indices": [0, 1]}}),
            ("indices", {"sampler": fast,
                         "projection": {"indices": [0, 0, 1]}}),
            ("indices", {"sampler": fast,
                         "projection": {"indices": [0, 1, 2]}})):
        bad.write_text(json.dumps({"output_dir": str(tmp_path / "out"),
                                   **wrong}))
        capsys.readouterr()
        assert cli.main(["run", "--config", str(bad)]) == 2, wrong
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError" and key in err["message"], err
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


def test_coincident_chart_points_named(tmp_path, capsys):
    """A copy of point 0 moved 1e-10 along x, appended to the default
    --dim 3 cloud, gets point 0's chart position. The mesh stage stops
    before Qhull, naming both points and their kNN neighbours."""
    out = ["--output-dir", str(tmp_path)]
    assert cli.main(["sample", "--dim", "3"] + out) == 0
    cloud = tmp_path / "cloud.csv"
    row = [float(x) for x in cloud.read_text().splitlines()[1].split(",")]
    row[0] += 1e-10
    with open(cloud, "a", encoding="ascii") as fh:
        fh.write(",".join("%.17g" % x for x in row) + "\n")
    capsys.readouterr()
    assert cli.main(["mesh", "--dim", "3"] + out) == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "MeshValidationError"
    assert "chart points coincide in pairs [[0, 2000]]" in err["message"]
    assert "Qhull" not in err["message"]
    report = err["details"]["report"]
    assert report["coincident_pairs"] == [[0, 2000]]
    near = report["neighbors"]
    assert set(near) == {"0", "2000"}
    assert 2000 in near["0"] and 0 in near["2000"]
    assert set(near["0"]) - {2000} == set(near["2000"]) - {0}
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


def test_validation_problems_print_one_json_line(tmp_path, capsys,
                                                 finished_run):
    """validate exits 4 on a mesh with problems and says so on stderr:
    one JSON line whose details hold the report validation.json holds."""
    payload = json.loads((finished_run / "mesh.json").read_text())
    payload["triangles"] = payload["triangles"][1:]
    torn = tmp_path / "torn.json"
    torn.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["validate", str(torn), "--output-dir",
                     str(tmp_path)]) == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["stage"] == "validate"
    assert err["error"] == "MeshValidationError"
    report = json.loads((tmp_path / "validation.json").read_text())
    assert err["details"]["report"]["problems"] == report["problems"]
    assert report["problems"][0] in err["message"]


@pytest.mark.parametrize("edit", ["duplicate-point", "unknown-provenance"])
def test_invalid_cloud_in_mesh_json_names_file(tmp_path, capsys,
                                               finished_run, edit):
    """A mesh.json whose points are no valid cloud stops like any other
    malformed mesh.json: exit 4, the file named, a problem list."""
    payload = json.loads((finished_run / "mesh.json").read_text())
    if edit == "duplicate-point":
        payload["points"][1] = payload["points"][0]
    else:
        payload["provenance"] = "scanner"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["validate", str(path), "--output-dir",
                     str(tmp_path)]) == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["error"] == "MeshValidationError"
    assert str(path) in err["message"]
    assert err["details"]["report"]["problems"] == [err["message"]]
    assert not (tmp_path / "validation.json").exists()


def test_unreadable_matrix_path_stops_at_config(tmp_path, capsys):
    """A custom_matrix file that holds no numbers stops the run at stage
    config, before the mesh stage spends its time."""
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("a b c\n")
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({
        **FAST, "output_dir": str(out),
        "projection": {"kind": "custom_matrix", "path": str(matrix)}}))
    capsys.readouterr()
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["stage"] == "config" and "path" in err["message"], err
    assert not (out / "cycles.json").exists()


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


NO_TRIANGLES = (b'{"dim": 3, "points": '
                b'[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}')


@pytest.mark.parametrize("command, name, data, code", [
    ("mesh", "cloud.csv", "# dim=3 \u00e9\n0,0,1\n0,1,0\n1,0,0\n1,1,1\n"
     .encode("utf-8"), 2),
    # a TPC1 binary cloud (magic, u32 dim, u64 count, f64 rows) is not CSV
    ("mesh", "cloud.csv", b"TPC1" + struct.pack("<IQ", 3, 4)
     + np.eye(4, 3).astype("<f8").tobytes(), 2),
    ("project", "mesh.json", b"not json\n", 4),
    ("validate", "mesh.json", NO_TRIANGLES, 4),
    ("project", "mesh.json", NO_TRIANGLES, 4),
    ("export", "projected.json", b'{"points": [], "source_dim": 3}', 3)],
    ids=["cloud-utf8", "cloud-tpc1", "mesh-not-json", "validate-no-triangles",
         "project-no-triangles", "export-no-triangles"])
def test_malformed_artifact_names_stage_and_file(tmp_path, capsys, command,
                                                 name, data, code):
    """A malformed input artifact stops its stage with the error that
    stage raises for a bad file: one JSON line on stderr that names the
    stage and the file, not a traceback."""
    (tmp_path / name).write_bytes(data)
    capsys.readouterr()
    assert cli.main([command, "--output-dir", str(tmp_path)]) == code
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["stage"] == command and name in err["message"], err


@pytest.mark.parametrize("command", ["sample", "run", "validate"])
def test_output_dir_that_is_a_file_exits_3(tmp_path, capsys, command):
    """An --output-dir that names an existing file stops the command at
    its own stage: exit 3 and one JSON line, not a traceback."""
    afile = tmp_path / "afile"
    afile.write_text("x")
    capsys.readouterr()
    assert cli.main([command, "--output-dir", str(afile)]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["stage"] == command and str(afile) in err["message"], err
    assert afile.read_text() == "x"


def _bad_id(payload, bad):
    payload["triangles"][0][0] = bad(len(payload["points"]))


def _two_columns(payload, key):
    payload[key] = [row[:2] for row in payload[key]]


def _fractional_id(payload):
    payload["triangles"][0][0] += 0.7


def _nan_point(payload):
    payload["points"][0][0] = float("nan")


def _report(payload, value):
    payload["report"] = value


MALFORMED = {
    "id-N": lambda p: _bad_id(p, lambda n: n),
    "id-minus-1": lambda p: _bad_id(p, lambda n: -1),
    "id-fractional": _fractional_id,
    "points-2-columns": lambda p: _two_columns(p, "points"),
    "triangles-2-columns": lambda p: _two_columns(p, "triangles"),
    "nan-point": _nan_point}
# a mesh.json's report is a JSON object; projected.json carries none
MALFORMED_MESH = {**MALFORMED,
                  "report-5": lambda p: _report(p, 5),
                  "report-str": lambda p: _report(p, "period_defect_max"),
                  "report-list": lambda p: _report(p, [1, 2])}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_export_rejects_malformed_projected_json(tmp_path, capsys,
                                                 finished_run, edit):
    """export writes a mesh file only from finite (N, 3) points and
    (T, 3) triangles whose ids index them; otherwise it exits 3 with one
    JSON line that names projected.json."""
    payload = json.loads((finished_run / "projected.json").read_text())
    edit(payload)
    (tmp_path / "projected.json").write_text(json.dumps(payload))
    for fmt in ("obj", "ply"):
        capsys.readouterr()
        assert cli.main(["export", "--format", fmt,
                         "--output-dir", str(tmp_path)]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        err = json.loads(lines[0])
        assert err["stage"] == "export", err
        assert err["error"] == "ProjectionError", err
        assert "projected.json" in err["message"], err
    assert not list(tmp_path.glob("mesh.*"))


@pytest.mark.parametrize("edit", MALFORMED_MESH.values(),
                         ids=MALFORMED_MESH.keys())
def test_validate_rejects_malformed_mesh_json(tmp_path, capsys,
                                              finished_run, edit):
    """validate and project read a mesh only with finite points, (T, 3)
    integer triangle ids that index them and a report that is a JSON
    object; otherwise each exits 4 with one JSON line that names the
    file, and writes nothing."""
    payload = json.loads((finished_run / "mesh.json").read_text())
    edit(payload)
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(payload))
    for argv in (["validate", str(path)], ["project"]):
        capsys.readouterr()
        assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 4
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        err = json.loads(lines[0])
        assert err["stage"] == argv[0], err
        assert err["error"] == "MeshValidationError", err
        assert err["message"].startswith(str(path)), err
    assert sorted(os.listdir(tmp_path)) == ["mesh.json"]


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
    assert run.stdout.strip() == "45", run.stderr


def test_module_entry_point_runs_without_warnings(tmp_path):
    """`python -m torusforge.cli` finds no half-imported copy of the CLI
    in sys.modules, so runpy has nothing to warn about."""
    run = _run_python(["-W", "error::RuntimeWarning", "-m", "torusforge.cli",
                       "--help"], cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert "usage: torusforge" in run.stdout
