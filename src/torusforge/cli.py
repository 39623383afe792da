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
import json
import logging
import os
import sys

import numpy as np

from . import cr3bp
from .errors import (ConfigError, MeshValidationError, OrientationConflictError,
                     TorusforgeError)
from .samplers import (StandardMapConfig, load_point_cloud,
                       sample_center_manifold_torus, sample_standard_map_torus,
                       sample_torus_revolution, save_point_cloud)
from .mesher import (export_mesh_json, load_mesh_json, mesh_flat_torus,
                     validate_mesh)
from .orientation import orient_mesh
from .projection import Projection, ProjectedMesh, export_mesh, project

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
                        "amp_vertical": 5e-3, "N": 6000, "dt": None},
}

_DIM_TO_KIND = {3: "torus_revolution", 4: "standard_map", 6: "center_manifold"}


def default_config():
    return {
        "seed": 0,
        "sampler": {"kind": "torus_revolution"},
        "k": 8,
        "weights": "inverse_length",
        "projection": {"kind": "coordinate_select", "indices": [0, 1, 2]},
        "export": {"format": "obj", "color_mode": "sidedness"},
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
    """Reject unknown keys in a sampler section, and numbers of the wrong
    type: N an integer, the others a number (dt may also be null)."""
    kind = sampler["kind"]
    defaults = _SAMPLER_DEFAULTS[kind]
    unknown = set(sampler) - set(defaults) - {"kind"}
    if unknown:
        raise ConfigError(f"unknown {kind} sampler keys: {sorted(unknown)}")
    for key, val in sampler.items():
        want = defaults.get(key)
        if _is_int(want) and not _is_int(val):
            raise ConfigError(f"sampler {key} must be an integer, got {val!r}")
        elif ((isinstance(want, float) or key == "dt" and val is not None)
              and not (_is_int(val) or isinstance(val, float))):
            raise ConfigError(f"sampler {key} must be a number, got {val!r}")


def _validate_config(cfg):
    known = set(default_config())
    unknown = set(cfg) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("sampler", "projection", "export"):
        if not isinstance(cfg[key], dict):
            raise ConfigError(f"{key} must be a JSON object, got "
                              f"{cfg[key]!r}")
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
    if (not isinstance(cfg["weights"], str)
            or cfg["weights"] not in ("uniform", "inverse_length")):
        raise ConfigError(f"weights must be uniform or inverse_length, got "
                          f"{cfg['weights']!r}")
    if cfg["export"]["format"] not in ("obj", "ply"):
        raise ConfigError(f"format must be obj or ply, got "
                          f"{cfg['export']['format']!r}")
    if cfg["export"].get("color_mode", "none") not in ("none", "sidedness"):
        raise ConfigError("color_mode must be none or sidedness")
    pk = cfg["projection"].get("kind")
    if pk not in ("coordinate_select", "pca", "custom_matrix"):
        raise ConfigError(f"unknown projection kind {pk!r}")
    for section, key in ((cfg, "output_dir"), (cfg["projection"], "path")):
        if not isinstance(section.get(key, ""), str):
            raise ConfigError(f"{key} must be a path string, got "
                              f"{section[key]!r}")
    indices = cfg["projection"].get("indices", [])
    if not isinstance(indices, list) or not all(map(_is_int, indices)):
        raise ConfigError(f"projection indices must be a list of integers, "
                          f"got {indices!r}")
    return cfg


def _parse_projection_flag(text):
    if text == "xyz":
        return {"kind": "coordinate_select", "indices": [0, 1, 2]}
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
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "k", None) is not None:
        cfg["k"] = args.k
    if getattr(args, "output_dir", None) is not None:
        cfg["output_dir"] = args.output_dir
    if getattr(args, "format", None) is not None:
        cfg["export"]["format"] = args.format
    if getattr(args, "projection", None) is not None:
        cfg["projection"] = _parse_projection_flag(args.projection)
    return _validate_config(cfg)


def build_cloud(cfg):
    kind = cfg["sampler"]["kind"]
    spec = {**_SAMPLER_DEFAULTS[kind], **cfg["sampler"]}
    if kind == "torus_revolution":
        return sample_torus_revolution(spec["R"], spec["r"], spec["N"],
                                       cfg["seed"],
                                       distribution=spec["distribution"])
    if kind == "standard_map":
        smc = StandardMapConfig(K1=spec["K1"], K2=spec["K2"],
                                theta1=spec["theta1"], p1=spec["p1"],
                                theta2=spec["theta2"], p2=spec["p2"],
                                N=spec["N"])
        return sample_standard_map_torus(smc)
    points = {p.label: p for p in cr3bp.libration_points(spec["mu"])}
    label = spec["point"]
    if label not in ("L1", "L2", "L3"):
        raise ConfigError(f"center-manifold point must be L1/L2/L3, got {label!r}")
    return sample_center_manifold_torus(spec["mu"], points[label],
                                        spec["amp_planar"],
                                        spec["amp_vertical"], spec["N"],
                                        dt=spec["dt"])


def _build_projection(cfg, dim):
    pc = cfg["projection"]
    if pc["kind"] == "coordinate_select":
        return Projection.coordinates(pc.get("indices", [0, 1, 2]))
    if pc["kind"] == "pca":
        return Projection.pca()
    key = "matrix" if "matrix" in pc else "path"
    if pc.get(key) is None:
        raise ConfigError("custom_matrix projection needs matrix or path")
    try:
        if key == "matrix":
            mat = np.asarray(pc["matrix"], dtype=np.float64)
        else:
            try:
                with open(pc["path"], "r", encoding="utf-8") as fh:
                    mat = np.asarray(json.load(fh), dtype=np.float64)
            except json.JSONDecodeError:
                mat = np.loadtxt(pc["path"], dtype=np.float64)
    except OSError as exc:
        raise ConfigError(f"cannot read projection matrix: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"projection {key} is not a numeric matrix: "
                          f"{exc}") from exc
    if mat.ndim != 2 or mat.shape[0] != 3 or mat.shape[1] != dim:
        raise ConfigError(
            f"projection matrix must be 3x{dim}, got {mat.shape}")
    return Projection.matrix(mat)


def _write_json(path, payload):
    with open(path, "w", encoding="ascii") as fh:
        # json.dumps takes the C encoder; json.dump never does
        fh.write(json.dumps(payload, sort_keys=True))
        fh.write("\n")


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
    Its layers load scipy, so they are imported here, not with the CLI."""
    from .knn import build_knn_graph
    from .cycles import classify_cycles, export_cycles_json, homology_split
    from .oneforms import (assemble_system, export_residuals_json,
                           solve_oneforms)
    if cloud is None:
        cloud = load_point_cloud(_art(cfg, "cloud.csv"))
    graph = build_knn_graph(cloud, k=cfg["k"])
    basis = homology_split(graph)
    classification = classify_cycles(basis)
    export_cycles_json(_art(cfg, "cycles.json"), basis, classification)
    system = assemble_system(graph, classification, weights=cfg["weights"])
    forms = solve_oneforms(system)
    export_residuals_json(_art(cfg, "residuals.json"), forms)
    try:
        mesh = mesh_flat_torus(graph, forms, cloud)
    except MeshValidationError as exc:
        if "coincident_pairs" in exc.report:
            exc.report["weights"] = cfg["weights"]
            if cfg["weights"] != "inverse_length":
                exc.report["advice"] = 'set "weights": "inverse_length"'
        raise
    export_mesh_json(_art(cfg, "mesh.json"), mesh)
    log.info("mesh: %d faces, chi=%d -> mesh.json",
             mesh.report["faces"], mesh.report["euler_characteristic"])
    return mesh


def stage_project(cfg, mesh=None):
    if mesh is None:
        mesh = orient_mesh(load_mesh_json(_art(cfg, "mesh.json")))
    proj = _build_projection(cfg, mesh.cloud.dim)
    pm = project(mesh, proj)
    payload = {
        "points": pm.points.tolist(),
        "triangles": pm.triangles.tolist(),
        "source_dim": pm.source_dim,
    }
    if pm.captured_variance is not None:
        payload["captured_variance"] = pm.captured_variance
    _write_json(_art(cfg, "projected.json"), payload)
    log.info("projected %dD -> 3D (%s)", pm.source_dim,
             cfg["projection"]["kind"])
    return pm


def stage_export(cfg, pm=None):
    if pm is None:
        with open(_art(cfg, "projected.json"), "r", encoding="ascii") as fh:
            payload = json.load(fh)
        pm = ProjectedMesh(np.array(payload["points"], dtype=np.float64),
                           np.array(payload["triangles"], dtype=np.int64),
                           int(payload["source_dim"]),
                           payload.get("captured_variance"))
    fmt = cfg["export"]["format"]
    path = _art(cfg, f"mesh.{fmt}")
    export_mesh(pm, fmt, path, color_mode=cfg["export"].get("color_mode",
                                                            "none"))
    return path


def stage_validate(cfg, mesh_path=None, write=True):
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
    if write:
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
        description="Mesh 2-tori sampled as point clouds in 3-6 dimensions.")
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


# structured evidence the pipeline's exceptions carry
_DETAIL_ATTRS = ("report", "diagnostics", "component_sizes", "conflict_cycle")


def _fail(stage, exc, code):
    payload = {"stage": stage, "error": type(exc).__name__, "message": str(exc)}
    details = {name: getattr(exc, name) for name in _DETAIL_ATTRS
               if getattr(exc, name, None) is not None}
    if details:
        payload["details"] = details
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("TORUSFORGE_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    os.makedirs(cfg["output_dir"], exist_ok=True)
    stage = args.command
    try:
        if stage == "sample":
            stage_sample(cfg)
        elif stage == "mesh":
            stage_mesh(cfg)
        elif stage == "project":
            stage_project(cfg)
        elif stage == "export":
            stage_export(cfg)
        elif stage == "validate":
            report = stage_validate(cfg, mesh_path=args.mesh_path)
            if report["problems"]:
                return EXIT_VALIDATION
        elif stage == "run":
            code, _ = run_pipeline(cfg)
            return code
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
