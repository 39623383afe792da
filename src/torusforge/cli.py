"""Command-line pipeline driver.

Subcommands cover each stage (sample, mesh, project, export, validate)
plus an all-in-one run. Configuration comes from JSON with CLI flag
overrides (flags win). Every stage reads and writes file artifacts in
the output directory, so a pipeline can be resumed or inspected midway:

    cloud.csv        sampled point cloud
    cycles.json      homology generators, trivial-cycle summary
    residuals.json   one-form solve diagnostics
    mesh.json        D-dim points + oriented triangles + report
    projected.json   3D vertex positions + triangles
    mesh.obj/.ply    exported mesh files
    validation.json  recomputed invariants (byte-deterministic)

Exit codes: 0 ok, 2 config error, 3 stage failure, 4 validation failure.
"""

import argparse
import copy
import gc
import json
import logging
import os
import sys
import time

import numpy as np
import orjson

from .errors import (ConfigError, MeshValidationError, OrientationConflictError,
                     ProjectionError, TorusforgeError)
from .samplers import (load_point_cloud, sample_center_manifold_torus,
                       sample_standard_map_torus, sample_torus_revolution,
                       save_point_cloud)
from .mesher import (_read_json, _read_triangles, _write_json,
                     export_mesh_json, load_mesh_json, mesh_flat_torus,
                     validate_mesh)
from .orientation import orient_mesh
from .projection import ProjectedMesh, export_mesh, project

log = logging.getLogger("torusforge.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_VALIDATION = 4

_SAMPLER_DEFAULTS = {
    "torus_revolution": {"R": 2.0, "r": 0.5, "N": 2000, "distribution": "grid"},
    "standard_map": {"K1": 0.3, "K2": 0.3, "theta1": 0.0, "theta2": 0.0,
                     "p1": 0.6180339887498949, "p2": 0.41421356237309515,
                     "N": 4000},
    "center_manifold": {"mu": 0.01215, "point": "L2", "amp_planar": 5e-3,
                        "amp_vertical": 5e-3, "N": 6000},
}
_SAMPLERS = {"torus_revolution": sample_torus_revolution,
             "standard_map": sample_standard_map_torus,
             "center_manifold": sample_center_manifold_torus}
_SAMPLER_CHOICES = {"distribution": ("grid", "fibonacci", "random"),
                    "point": ("L1", "L2", "L3")}

_DIM_TO_KIND = {3: "torus_revolution", 4: "standard_map", 6: "center_manifold"}


def default_config():
    return {
        "seed": 0,
        "sampler": {"kind": "torus_revolution"},
        "k": 8,
        "projection": {"kind": "coordinate_select"},
        "export": {"format": "obj"},
        "output_dir": ".",
    }


def _deep_merge(base, override):
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return user


def _is_int(val):
    return isinstance(val, int) and not isinstance(val, bool)


def _check_sampler(sampler):
    """Reject unknown keys in a sampler section, numbers of the wrong
    type (N an integer, the others a number) and unknown names."""
    kind = sampler["kind"]
    defaults = _SAMPLER_DEFAULTS[kind]
    unknown = set(sampler) - set(defaults) - {"kind"}
    if unknown:
        raise ConfigError(f"unknown {kind} sampler keys: {sorted(unknown)}")
    for key, val in sampler.items():
        want = defaults.get(key)
        if _is_int(want) and not _is_int(val):
            raise ConfigError(f"sampler {key} must be an integer, got {val!r}")
        elif (isinstance(want, float)
              and not (_is_int(val) or isinstance(val, float))):
            raise ConfigError(f"sampler {key} must be a number, got {val!r}")
        elif key in _SAMPLER_CHOICES and val not in _SAMPLER_CHOICES[key]:
            raise ConfigError(f"sampler {key} must be one of "
                              f"{list(_SAMPLER_CHOICES[key])}, got {val!r}")


def _validate_config(cfg):
    known = set(default_config())
    unknown = set(cfg) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("sampler", "projection", "export"):
        if not isinstance(cfg[key], dict):
            raise ConfigError(f"{key} must be a JSON object, got "
                              f"{cfg[key]!r}")
    for key, allowed in (("export", {"format"}),
                         ("projection", {"kind", "path"})):
        unknown = set(cfg[key]) - allowed
        if unknown:
            raise ConfigError(f"unknown {key} keys: {sorted(unknown)}")
    kind = cfg["sampler"].get("kind")
    if not isinstance(kind, str) or kind not in _SAMPLER_DEFAULTS:
        raise ConfigError(
            f"unknown sampler kind {kind!r}; choose from "
            f"{sorted(_SAMPLER_DEFAULTS)}")
    _check_sampler(cfg["sampler"])
    if not _is_int(cfg["seed"]) or cfg["seed"] < 0:
        raise ConfigError(f"seed must be an integer >= 0, got "
                          f"{cfg['seed']!r}")
    if not isinstance(cfg["k"], int) or cfg["k"] < 2:
        raise ConfigError(f"k must be an integer >= 2, got {cfg['k']!r}")
    if cfg["export"]["format"] not in ("obj", "ply"):
        raise ConfigError(f"format must be obj or ply, got "
                          f"{cfg['export']['format']!r}")
    pk = cfg["projection"].get("kind")
    if pk not in ("coordinate_select", "pca", "custom_matrix"):
        raise ConfigError(f"unknown projection kind {pk!r}")
    for section, key in ((cfg, "output_dir"), (cfg["projection"], "path")):
        if not isinstance(section.get(key, ""), str):
            raise ConfigError(f"{key} must be a path string, got "
                              f"{section[key]!r}")
    if pk == "custom_matrix":
        # read and checked once; `_projection_axes` hands it to `project`
        cfg["projection"]["matrix"] = _projection_matrix(cfg["projection"])
    return cfg


def _parse_projection_flag(text):
    if text == "xyz":
        return {"kind": "coordinate_select"}
    if text == "pca":
        return {"kind": "pca"}
    if text.startswith("matrix:"):
        return {"kind": "custom_matrix", "path": text[len("matrix:"):]}
    raise ConfigError(
        f"--projection must be xyz, pca or matrix:<path>, got {text!r}")


def resolve_config(args):
    """Defaults <- config file <- CLI flags (flags win)."""
    cfg = default_config()
    if getattr(args, "config", None):
        cfg = _deep_merge(cfg, load_config(args.config))
    if getattr(args, "dim", None) is not None:
        if args.dim not in _DIM_TO_KIND:
            raise ConfigError(
                f"--dim must be one of {sorted(_DIM_TO_KIND)}, got {args.dim}")
        cfg["sampler"] = {"kind": _DIM_TO_KIND[args.dim]}
    for key in ("seed", "k", "output_dir"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    if getattr(args, "format", None) is not None:
        cfg["export"]["format"] = args.format
    if getattr(args, "projection", None) is not None:
        cfg["projection"] = _parse_projection_flag(args.projection)
    return _validate_config(cfg)


def build_cloud(cfg):
    spec = {**_SAMPLER_DEFAULTS[cfg["sampler"]["kind"]], **cfg["sampler"]}
    kind = spec.pop("kind")
    if kind == "torus_revolution":
        spec["seed"] = cfg["seed"]
    return _SAMPLERS[kind](**spec)


def _projection_matrix(pc):
    """The matrix of a custom_matrix projection section, read from the
    JSON file at `path`. Raises ConfigError unless it is a finite numeric
    matrix of 3 rows; whether it has one column per cloud coordinate is
    checked by `project`."""
    if pc.get("path") is None:
        raise ConfigError("custom_matrix projection needs a path")
    try:
        with open(pc["path"], "r", encoding="utf-8") as fh:
            mat = np.asarray(json.load(fh), dtype=np.float64)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"projection path {pc['path']} holds no JSON "
                          f"numeric matrix: {exc}") from exc
    if mat.ndim != 2 or mat.shape[0] != 3:
        raise ConfigError(f"projection path must hold a matrix of 3 rows, "
                          f"got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ConfigError(f"projection path {pc['path']} holds a non-finite "
                          f"entry")
    return mat


def _projection_axes(section, dim):
    """The (3, dim) matrix of a projection section for `project`: the
    first three coordinates, the matrix `_validate_config` read from a
    custom_matrix file, or None for pca."""
    if section["kind"] == "coordinate_select":
        return np.eye(3, dim)
    return section.get("matrix")


def _art(cfg, name):
    return os.path.join(cfg["output_dir"], name)


def stage_sample(cfg):
    cloud = build_cloud(cfg)
    os.makedirs(cfg["output_dir"], exist_ok=True)
    save_point_cloud(_art(cfg, "cloud.csv"), cloud)
    log.info("sampled %d points (dim %d) -> cloud.csv", cloud.n, cloud.dim)
    return cloud


def stage_mesh(cfg, cloud=None):
    """knn -> cycle basis -> one-forms -> flat-torus Delaunay mesh.

    The mesh comes out oriented: `mesh_flat_torus` certifies that every
    directed edge is walked by one face, so no orientation pass runs.
    Its layers load scipy, so they are imported here, not with the CLI;
    the import is the largest fixed cost of a run, so it is logged."""
    started = time.perf_counter()
    from .knn import build_knn_graph
    from .cycles import export_cycles_json
    from .oneforms import export_residuals_json, parameterize
    log.info("mesh layers imported in %.3f s", time.perf_counter() - started)
    if cloud is None:
        cloud = load_point_cloud(_art(cfg, "cloud.csv"))
    graph = build_knn_graph(cloud, k=cfg["k"])
    classified, forms = parameterize(graph)
    export_cycles_json(_art(cfg, "cycles.json"), classified)
    export_residuals_json(_art(cfg, "residuals.json"), forms)
    mesh = mesh_flat_torus(graph, forms, cloud)
    export_mesh_json(_art(cfg, "mesh.json"), mesh)
    log.info("mesh: %d faces, chi=%d -> mesh.json",
             mesh.report["faces"], mesh.report["euler_characteristic"])
    return mesh


def stage_project(cfg, mesh=None):
    if mesh is None:
        mesh = orient_mesh(load_mesh_json(_art(cfg, "mesh.json")))
    pm = project(mesh, _projection_axes(cfg["projection"], mesh.cloud.dim))
    payload = {
        "points": pm.points,
        "triangles": pm.triangles,
        "source_dim": pm.source_dim,
    }
    if pm.captured_variance is not None:
        payload["captured_variance"] = pm.captured_variance
    _write_json(_art(cfg, "projected.json"), payload)
    log.info("projected %dD -> 3D (%s)", pm.source_dim,
             cfg["projection"]["kind"])
    return pm


def _load_projected(source):
    """Read a projected.json; raises ProjectionError, naming the file,
    unless it holds finite (N, 3) points, (T, 3) integer triangles whose
    ids index the points, and an integer `source_dim`."""
    try:
        payload = _read_json(source)
        points = np.array(payload["points"], dtype=np.float64)
        if points.shape[1:] != (3,) or not np.isfinite(points).all():
            raise ValueError("points are not a finite (N, 3) array")
        tris = _read_triangles(payload["triangles"], len(points))
        source_dim = payload["source_dim"]
        if not _is_int(source_dim):
            raise TypeError(f"source_dim must be an integer, got "
                            f"{source_dim!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ProjectionError(f"{source} is not a projected.json: "
                              f"{type(exc).__name__}: {exc}") from None
    return ProjectedMesh(points, tris, source_dim,
                         payload.get("captured_variance"))


def stage_export(cfg, pm=None):
    if pm is None:
        pm = _load_projected(_art(cfg, "projected.json"))
    fmt = cfg["export"]["format"]
    path = _art(cfg, f"mesh.{fmt}")
    export_mesh(pm, fmt, path)
    return path


def stage_validate(cfg, mesh_path=None):
    """Recompute invariants; works on externally produced mesh.json too."""
    path = mesh_path or _art(cfg, "mesh.json")
    mesh = load_mesh_json(path)
    report = validate_mesh(mesh.triangles, strict=False)
    if "period_defect_max" in mesh.report:
        report["period_defect_max"] = mesh.report["period_defect_max"]
    try:
        orient_mesh(mesh)
        report["orientation_conflicts"] = 0
    except OrientationConflictError as exc:
        report["orientation_conflicts"] = 1
        report["problems"] = report["problems"] + [f"orientation: {exc}"]
    report["dim"] = mesh.cloud.dim
    report["provenance"] = mesh.cloud.provenance
    _write_json(_art(cfg, "validation.json"), report)
    return report


def run_pipeline(cfg):
    """Full pipeline; returns (exit_code, validation report or None)."""
    cloud = stage_sample(cfg)
    mesh = stage_mesh(cfg, cloud)
    pm = stage_project(cfg, mesh)
    stage_export(cfg, pm)
    report = stage_validate(cfg)
    code = EXIT_OK if not report["problems"] else EXIT_VALIDATION
    return code, report


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="master RNG seed")
    parser.add_argument("--k", type=int, help="neighbors per vertex")
    parser.add_argument("--dim", type=int,
                        help="pick the default sampler by embedding dimension")
    parser.add_argument("--output-dir", help="artifact directory")
    parser.add_argument("--format", choices=("obj", "ply"),
                        help="export format")
    parser.add_argument("--projection",
                        help="xyz, pca or matrix:<path>")


def make_parser():
    parser = argparse.ArgumentParser(
        prog="torusforge",
        description="Mesh 2-tori sampled as point clouds in dimension >= 3.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("sample", "sample a point cloud -> cloud.csv"),
            ("mesh", "cloud.csv -> cycles/residuals/mesh.json"),
            ("project", "mesh.json -> projected.json"),
            ("export", "projected.json -> mesh.obj|mesh.ply"),
            ("validate", "recompute invariants -> validation.json"),
            ("run", "full pipeline")):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "validate":
            p.add_argument("mesh_path", nargs="?",
                           help="mesh JSON to validate (default: "
                                "<output-dir>/mesh.json)")
    return parser


def _fail(stage, exc, code):
    payload = {"stage": stage, "error": type(exc).__name__, "message": str(exc)}
    if getattr(exc, "details", None):   # numpy as numbers, non-finite as null
        payload["details"] = orjson.loads(orjson.dumps(exc.details, option=(
            orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_NON_STR_KEYS)))
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None):
    """Run one command; returns its exit code.

    The cyclic collector is off while the command runs: the pipeline
    makes almost no reference cycles, so its passes over the import
    graph reclaim nothing. On the way out the heap is frozen, unless
    something in the process froze it before, so that the collection at
    interpreter exit skips it; then the collector is turned back on if
    the caller had it on."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _command(argv)
    finally:
        if gc.get_freeze_count() == 0:
            gc.freeze()
        if enabled:
            gc.enable()


def _command(argv):
    logging.basicConfig(
        level=os.environ.get("TORUSFORGE_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    stage = args.command
    try:
        os.makedirs(cfg["output_dir"], exist_ok=True)
        if stage in ("validate", "run"):
            report = (stage_validate(cfg, mesh_path=args.mesh_path)
                      if stage == "validate" else run_pipeline(cfg)[1])
            if report["problems"]:
                raise MeshValidationError(
                    f"{len(report['problems'])} validation problems, first: "
                    f"{report['problems'][0]}", report=report)
        else:
            {"sample": stage_sample, "mesh": stage_mesh,
             "project": stage_project, "export": stage_export}[stage](cfg)
    except ConfigError as exc:
        return _fail(stage, exc, EXIT_CONFIG)
    except MeshValidationError as exc:
        return _fail(stage, exc, EXIT_VALIDATION)
    except TorusforgeError as exc:
        return _fail(stage, exc, EXIT_STAGE)
    except OSError as exc:
        return _fail(stage, exc, EXIT_STAGE)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
