"""End-to-end command line checks: artifacts, exit codes, config
precedence, stage isolation, and byte-level determinism."""

import gc
import inspect
import json
import os
import re
import struct
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from conftest import assert_closed_face_chain, klein_bottle
from torusforge import cli
from torusforge.errors import (ConfigError, CycleBasisError,
                               DisconnectedGraphError, MeshValidationError,
                               OrientationConflictError, ResidualError)
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
    """On a 300-point grid of the thin torus r = 0.2, the triangles and
    squares leave one slot where a torus leaves two: the neighbour graph
    has one independent loop too few. The failure says so, says what to
    do, and carries the slot count."""
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps({"sampler": {"kind": "torus_revolution",
                                           "N": 300, "r": 0.2}}))
    code = cli.main(["run", "--config", str(cfg),
                     "--output-dir", str(tmp_path)])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "GeneratorClassificationError"
    assert err["stage"] == "run"
    assert "leave 1 slot" in err["message"]
    assert "sample more points across the cloud's thin direction" in (
        err["message"])
    assert err["details"] == {"slots": 1}


def test_coincident_chart_points_named(tmp_path, capsys):
    """A copy of point 0 moved 1e-10 along x, appended to the default
    --dim 3 cloud, gets point 0's chart position. The mesh stage stops
    before Qhull, naming both points and their kNN neighbours, with the
    message as the report's one problem, as every exit 4 lists them."""
    out = ["--output-dir", str(tmp_path)]
    assert cli.main(["sample", "--dim", "3"] + out) == 0
    cloud = tmp_path / "cloud.csv"
    first = next(line for line in cloud.read_text().splitlines()
                 if not line.startswith("#"))
    row = [float(x) for x in first.split(",")]
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
    assert report["problems"] == [err["message"]]
    assert report["coincident_pairs"] == [[0, 2000]]
    near = report["neighbors"]
    assert set(near) == {"0", "2000"}
    assert 2000 in near["0"] and 0 in near["2000"]
    assert set(near["0"]) - {2000} == set(near["2000"]) - {0}
    assert not (tmp_path / "mesh.json").exists()


def test_failure_json_carries_exception_payload(capsys):
    """Each kind of evidence, given by keyword, reaches stderr as the
    `details` of one JSON line."""
    split = ("disconnected graph: 2 components of sizes [7, 5]; retry "
             "with a larger k or a denser cloud")
    cases = ((MeshValidationError("torn", report={"boundary_edges": 3}),
              '{"details": {"report": {"boundary_edges": 3}}, '
              '"error": "MeshValidationError", "message": "torn", '
              '"stage": "mesh"}'),
             (ResidualError("off", diagnostics={"period_defect_max": 0.5}),
              '{"details": {"diagnostics": {"period_defect_max": 0.5}}, '
              '"error": "ResidualError", "message": "off", "stage": "mesh"}'),
             (DisconnectedGraphError(split, component_sizes=[7, 5]),
              '{"details": {"component_sizes": [7, 5]}, '
              '"error": "DisconnectedGraphError", "message": "' + split
              + '", "stage": "mesh"}'),
             (OrientationConflictError("flip", conflict_cycle=[3, 1, 3]),
              '{"details": {"conflict_cycle": [3, 1, 3]}, '
              '"error": "OrientationConflictError", "message": "flip", '
              '"stage": "mesh"}'))
    for exc, line in cases:
        assert cli._fail("mesh", exc, 3) == 3
        assert capsys.readouterr().err == line + "\n"
    cli._fail("config", ConfigError("bad"), 2)
    assert "details" not in json.loads(capsys.readouterr().err)


def test_failure_json_is_strict_with_non_finite_evidence(capsys):
    """A non-finite float in the evidence prints as null, so the failure
    line parses under a parser that refuses NaN and Infinity; the finite
    values are kept."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    exc = ResidualError("off", diagnostics={
        "chart_metric_coefficients": [float("inf"), np.float64("inf")],
        "u": {"rms": float("nan"), "gate": 1e-8},
        "periods": ((1.0, -float("inf")), (0.0, 1.0))})
    assert cli._fail("run", exc, 3) == 3
    line = json.loads(capsys.readouterr().err, parse_constant=refuse)
    assert line["details"]["diagnostics"] == {
        "chart_metric_coefficients": [None, None],
        "u": {"rms": None, "gate": 1e-8},
        "periods": [[1.0, None], [0.0, 1.0]]}


def test_failure_json_prints_numpy_evidence(capsys):
    """Evidence that holds numpy values, an int64 and arrays (one with a
    non-finite entry), prints as plain JSON numbers and lists."""
    exc = CycleBasisError("x", count=np.int64(3),
                          faces=np.arange(4).reshape(2, 2),
                          periods=np.array([0.5, np.inf]))
    assert cli._fail("run", exc, 3) == 3
    assert capsys.readouterr().err == (
        '{"details": {"count": 3, "faces": [[0, 1], [2, 3]], '
        '"periods": [0.5, null]}, "error": "CycleBasisError", '
        '"message": "x", "stage": "run"}\n')


def test_complete_graph_stops_before_the_short_cycle_search(tmp_path, capsys):
    """k = N - 1 on 300 points builds the complete graph K300, whose 13.4 M
    wedges are over the bound: the run stops within a second at exit 2,
    naming the wedge count, the bound and the largest k that could fit."""
    cfg = tmp_path / "k300.json"
    cfg.write_text(json.dumps({"sampler": {"kind": "torus_revolution",
                                           "N": 300}, "k": 299}))
    start = time.perf_counter()
    code = cli.main(["run", "--config", str(cfg),
                     "--output-dir", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert err["stage"] == "run"
    assert err["details"] == {"wedges": 13365300, "wedge_bound": 4194304,
                              "k_max": 167}
    assert "least degree, 299" in err["message"]
    assert "k <= 167" in err["message"]
    assert not (tmp_path / "cycles.json").exists()


@pytest.mark.parametrize("K, slots, core", [(10, 58, 233), (1e6, 50, 159)],
                         ids=["K10", "K1e6"])
def test_chaotic_standard_map_hole_cloud_meshes(K, slots, core, tmp_path,
                                                caplog):
    """The 800-point product standard map at K1 = K2 = 10, and at 1e6,
    leaves `slots` slots to de Pina's rule. Its basis rows leave a core
    of `core` coordinates that no row peels, which SuperLU solves: it
    meshes as a closed torus, chi = 0, every point a vertex."""
    cfg = tmp_path / "chaotic.json"
    cfg.write_text(json.dumps({"sampler": {
        "kind": "standard_map", "N": 800, "K1": K, "K2": K,
        "p1": 3.14159, "p2": 1.0}}))
    with caplog.at_level("INFO", logger="torusforge"):
        assert cli.main(["run", "--config", str(cfg),
                         "--output-dir", str(tmp_path)]) == 0
    assert f"support-vector phase for {slots} remaining cycles" in (
        caplog.text)
    peeled, m = map(int, re.search(
        rf"(\d+) of (\d+) coordinates peeled from \2 rows in \d+ rounds, "
        rf"core {core}\n", caplog.text).groups())
    assert peeled + core == m
    report = json.loads((tmp_path / "validation.json").read_text())
    assert report["euler_characteristic"] == 0
    assert report["boundary_edges"] == report["nonmanifold_edges"] == 0
    assert report["problems"] == []
    assert report["vertices"] == 800


def test_failure_json_carries_any_subclass_evidence(capsys):
    """Evidence on an error the CLI names nowhere is printed as given;
    evidence given as None is left out."""
    cli._fail("mesh", CycleBasisError("x", slots=3, report=None), 3)
    assert json.loads(capsys.readouterr().err)["details"] == {"slots": 3}
    assert CycleBasisError("x", report=None).details == {}


def test_stage_isolation(tmp_path, fast_cfg, finished_run):
    """Each stage run as its own process-style invocation picks up the
    previous stage's artifacts from disk, and together they write what
    `run` writes, byte for byte (cloud.csv carries the provenance)."""
    common = ["--config", str(fast_cfg), "--output-dir", str(tmp_path)]
    for stage in ("sample", "mesh", "project", "export", "validate"):
        assert cli.main([stage] + common) == 0, stage
    for name in ARTIFACTS:
        assert ((tmp_path / name).read_bytes()
                == (finished_run / name).read_bytes()), name


def test_mesh_stage_takes_any_dimension(tmp_path, finished_run):
    """The 800-point run's cloud lifted into R^8 by a seeded orthonormal
    map meshes from cloud.csv, and the later stages read the result."""
    points = np.loadtxt(finished_run / "cloud.csv", delimiter=",")
    q, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(8, 3)))
    np.savetxt(tmp_path / "cloud.csv", points @ q.T, delimiter=",",
               fmt="%.17g")
    for stage in ("mesh", "project", "export", "validate"):
        assert cli.main([stage, "--output-dir", str(tmp_path)]) == 0, stage
    report = json.loads((tmp_path / "validation.json").read_text())
    assert report["dim"] == 8
    assert report["faces"] == 2 * len(points)
    assert report["problems"] == []


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


@pytest.mark.parametrize("entry", ["NaN", "Infinity"])
def test_non_finite_matrix_stops_at_config(tmp_path, capsys, finished_run,
                                           entry):
    """A matrix file with a NaN or infinite entry stops project, and run
    before its mesh stage, at stage config with exit 2 and one JSON line
    naming the file; no projected.json is written."""
    matrix = tmp_path / "m.json"
    matrix.write_text(f"[[{entry}, 0, 0], [0, 1, 0], [0, 0, 1]]")
    (tmp_path / "mesh.json").write_bytes(
        (finished_run / "mesh.json").read_bytes())
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({
        **FAST, "output_dir": str(out),
        "projection": {"kind": "custom_matrix", "path": str(matrix)}}))
    for argv in (["project", "--projection", f"matrix:{matrix}",
                  "--output-dir", str(tmp_path)],
                 ["run", "--config", str(cfg)]):
        capsys.readouterr()
        assert cli.main(argv) == 2, argv
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        err = json.loads(lines[0])
        assert err["stage"] == "config" and err["error"] == "ConfigError"
        assert str(matrix) in err["message"] and "non-finite" in err[
            "message"], err
    assert not (tmp_path / "projected.json").exists()
    assert not out.exists()


def test_overflowing_matrix_stops_at_project(tmp_path, capsys, finished_run):
    """A finite matrix file whose product overflows stops project with
    exit 3 at stage project, one JSON line on stderr and no overflow
    warning; no projected.json is written."""
    matrix = tmp_path / "m.json"
    matrix.write_text("[[1e308, 0, 0], [0, 1e308, 0], [0, 0, 1e308]]")
    (tmp_path / "mesh.json").write_bytes(
        (finished_run / "mesh.json").read_bytes())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["project", "--projection", f"matrix:{matrix}",
                         "--output-dir", str(tmp_path)])
    assert code == 3 and not caught, [str(w.message) for w in caught]
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["stage"] == "project" and err["error"] == "ProjectionError"
    assert not (tmp_path / "projected.json").exists()


def test_nan_amplitude_stops_sample(tmp_path, capsys):
    """A NaN amplitude in the config stops sample with exit 2 and one
    JSON line naming both amplitudes, and writes no cloud."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sampler": {"kind": "center_manifold",
                                           "amp_planar": float("nan")}}))
    capsys.readouterr()
    assert cli.main(["sample", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["stage"] == "sample" and err["error"] == "ConfigError", err
    assert "amp_planar=nan" in err["message"], err
    assert "amp_vertical=0.005" in err["message"], err
    assert not (tmp_path / "out" / "cloud.csv").exists()


@pytest.mark.parametrize("key", ["amp_planar", "amp_vertical"])
def test_zero_amplitude_stops_sample_and_run(tmp_path, capsys, key):
    """A zero amplitude leaves one mode's closed curve, not a torus: sample
    and run stop with exit 2 and one JSON line naming both amplitudes,
    before any kNN graph is built, and write no cloud."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sampler": {"kind": "center_manifold",
                                           key: 0}}))
    for stage in ("sample", "run"):
        out = tmp_path / stage
        capsys.readouterr()
        assert cli.main([stage, "--config", str(cfg),
                         "--output-dir", str(out)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        err = json.loads(lines[0])
        assert err["stage"] == stage and err["error"] == "ConfigError", err
        assert f"{key}=0" in err["message"], err
        assert "amp_planar=" in err["message"], err
        assert "amp_vertical=" in err["message"], err
        assert not (out / "cloud.csv").exists()


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
# loadable but for the UTF-8 note, which no reader looks at
MESH_UTF8 = (b'{"dim": 3, "note": "\xc3\xa9", "points": '
             b'[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], '
             b'"triangles": [[0, 1, 2]]}')
PROJECTED_UTF8 = (b'{"note": "\xc3\xa9", "points": [[0, 0, 0], [1, 0, 0], '
                  b'[0, 1, 0]], "source_dim": 3, "triangles": [[0, 1, 2]]}')


@pytest.mark.parametrize("command, name, data, code", [
    ("mesh", "cloud.csv", "# dim=3 \u00e9\n0,0,1\n0,1,0\n1,0,0\n1,1,1\n"
     .encode("utf-8"), 2),
    # a TPC1 binary cloud (magic, u32 dim, u64 count, f64 rows) is not CSV
    ("mesh", "cloud.csv", b"TPC1" + struct.pack("<IQ", 3, 4)
     + np.eye(4, 3).astype("<f8").tobytes(), 2),
    ("mesh", "cloud.csv", b"0,0\n0,1\n1,0\n1,1\n2,2\n", 2),
    ("project", "mesh.json", b"not json\n", 4),
    ("project", "mesh.json", MESH_UTF8, 4),
    ("validate", "mesh.json", NO_TRIANGLES, 4),
    ("project", "mesh.json", NO_TRIANGLES, 4),
    ("export", "projected.json", b'{"points": [], "source_dim": 3}', 3),
    ("export", "projected.json", PROJECTED_UTF8, 3)],
    ids=["cloud-utf8", "cloud-tpc1", "cloud-2-columns", "mesh-not-json",
         "mesh-utf8", "validate-no-triangles", "project-no-triangles",
         "export-no-triangles", "projected-utf8"])
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


def _null_point(payload):
    # strict JSON, but numpy reads null as NaN
    payload["points"][0][0] = None


def _report(payload, value):
    payload["report"] = value


MALFORMED = {
    "id-N": lambda p: _bad_id(p, lambda n: n),
    "id-minus-1": lambda p: _bad_id(p, lambda n: -1),
    "id-fractional": _fractional_id,
    "points-2-columns": lambda p: _two_columns(p, "points"),
    "triangles-2-columns": lambda p: _two_columns(p, "triangles"),
    "nan-point": _nan_point,
    "null-point": _null_point}
# a mesh.json's report is a JSON object; projected.json carries none
MALFORMED_MESH = {**MALFORMED,
                  "dim-mismatch": lambda p: p.update(dim=p["dim"] + 1),
                  "dim-fractional": lambda p: p.update(dim=p["dim"] + 0.5),
                  "dim-string": lambda p: p.update(dim=str(p["dim"])),
                  "report-5": lambda p: _report(p, 5),
                  "report-str": lambda p: _report(p, "period_defect_max"),
                  "report-list": lambda p: _report(p, [1, 2]),
                  # json.dumps writes the NaN token, which is not JSON
                  "report-nan": lambda p: p["report"].update(
                      period_defect_max=float("nan")),
                  "report-defect-str": lambda p: p["report"].update(
                      period_defect_max="\u00e9")}
# a projected.json's source_dim is a JSON integer, as a mesh.json's dim
MALFORMED_PROJECTED = {
    **MALFORMED,
    "source-dim-fractional": lambda p: p.update(
        source_dim=p["source_dim"] + 0.5),
    "source-dim-string": lambda p: p.update(source_dim=str(p["source_dim"])),
    "source-dim-bool": lambda p: p.update(source_dim=True)}


@pytest.mark.parametrize("edit", MALFORMED_PROJECTED.values(),
                         ids=MALFORMED_PROJECTED.keys())
def test_export_rejects_malformed_projected_json(tmp_path, capsys,
                                                 finished_run, edit):
    """export writes a mesh file only from finite (N, 3) points, (T, 3)
    triangles whose ids index them and an integer source_dim; otherwise
    it exits 3 with one JSON line that names projected.json."""
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
    """validate and project read a mesh only with finite points, an
    integer dim equal to their width, (T, 3) integer triangle ids that
    index them and a report that is a JSON object; otherwise each exits
    4 with one JSON line that names the file, and writes nothing."""
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


def test_projection_matrix_is_read_once(tmp_path, finished_run, fast_cfg):
    """`project` uses the matrix the config stage read and checked: a file
    rewritten afterwards as a 2-row matrix does not reach it."""
    mat = [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, -0.5, 0.5]]
    matpath = tmp_path / "proj.json"
    matpath.write_text(json.dumps(mat))
    (tmp_path / "mesh.json").write_bytes(
        (finished_run / "mesh.json").read_bytes())
    cfg = cli.resolve_config(cli.make_parser().parse_args(
        ["project", "--config", str(fast_cfg), "--output-dir", str(tmp_path),
         "--projection", f"matrix:{matpath}"]))
    matpath.write_text(json.dumps(mat[:2]))
    pm = cli.stage_project(cfg)
    mesh = json.loads((tmp_path / "mesh.json").read_text())
    expected = np.asarray(mesh["points"]) @ np.asarray(mat).T
    assert np.allclose(pm.points, expected, atol=0)


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
    assert run.stdout.strip() == "35", run.stderr


def test_module_entry_point_runs_without_warnings(tmp_path):
    """`python -m torusforge.cli` finds no half-imported copy of the CLI
    in sys.modules, so runpy has nothing to warn about."""
    run = _run_python(["-W", "error::RuntimeWarning", "-m", "torusforge.cli",
                       "--help"], cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert "usage: torusforge" in run.stdout


def test_collector_is_off_while_a_command_runs(tmp_path, fast_cfg,
                                               monkeypatch):
    """The cyclic collector is off inside the command and back on after
    it, as the caller had it."""
    seen, stage = [], cli.stage_sample
    monkeypatch.setattr(cli, "stage_sample",
                        lambda cfg: seen.append(gc.isenabled()) or stage(cfg))
    assert gc.isenabled()
    assert cli.main(["sample", "--config", str(fast_cfg),
                     "--output-dir", str(tmp_path)]) == 0
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", [0, 2, 3, 4, "usage", "raise"])
def test_main_gives_the_caller_its_collector_state(outcome, enabled, tmp_path,
                                                   fast_cfg, monkeypatch):
    """Whatever way a command ends (exit 0, 2, 3 or 4, argparse's
    SystemExit, or an unexpected exception), the collector is on after
    it exactly when it was on before."""
    out = tmp_path / "out"
    argv = ["sample", "--config", str(fast_cfg), "--output-dir", str(out)]
    if outcome == 2:
        argv += ["--k", "1"]
    elif outcome == 3:
        out.write_text("")
    elif outcome == 4:
        out.mkdir()
        (out / "mesh.json").write_text("not json")
        argv[0] = "validate"
    elif outcome == "usage":
        argv += ["--no-such-flag"]
    elif outcome == "raise":
        def boom(cfg):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "stage_sample", boom)
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "usage":
            with pytest.raises(SystemExit):
                cli.main(argv)
        elif outcome == "raise":
            with pytest.raises(RuntimeError, match="boom"):
                cli.main(argv)
        else:
            assert cli.main(argv) == outcome
        after = gc.isenabled()
    finally:
        (gc.enable if before else gc.disable)()
    assert after == enabled


def test_command_process_ends_frozen_with_collector_on(tmp_path,
                                                       monkeypatch):
    """A fresh process that runs `run --dim 3` through `main` ends with
    its heap frozen and the collector on, and its INFO log times the
    mesh layers' import."""
    monkeypatch.setenv("TORUSFORGE_LOG", "INFO")
    code = f"""
import gc
from torusforge.cli import main
assert gc.get_freeze_count() == 0
code = main(["run", "--dim", "3", "--output-dir", {str(tmp_path)!r}])
print(code, gc.get_freeze_count() > 0, gc.isenabled())
"""
    run = _run_python(["-c", code])
    assert run.stdout.split() == ["0", "True", "True"], run.stderr
    assert re.search(r"^INFO torusforge\.cli: mesh layers imported in "
                     r"\d+\.\d{3} s$", run.stderr, re.M), run.stderr


def test_second_main_call_keeps_the_freeze_count(tmp_path, fast_cfg):
    """The heap is frozen once, by a process's first `main` call; a second
    call freezes nothing more."""
    argv = ["sample", "--config", str(fast_cfg), "--output-dir",
            str(tmp_path)]
    assert cli.main(argv) == 0
    frozen = gc.get_freeze_count()
    assert frozen > 0
    assert cli.main(argv) == 0
    assert gc.get_freeze_count() == frozen
