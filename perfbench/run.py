"""End-to-end and per-layer benchmark of the torusforge command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the CLI is started from
`src/` with `PYTHONPATH=src`, one process at a time. `--trace 0` repeats
the workload for at least `--seconds` seconds with tracing off and
reports the end-to-end metrics. `--trace 1` runs the workload once
untraced and once through `trace_cli.py`, and reports the per-layer
metrics. Both check every repetition's output. The metric names and
units come from `BENCHMARK.json` beside `perfbench/`. The last line of
standard output is the result object; the line before it, and a file
under `.perfbench/`, hold the details (every repetition, triangle-set
hashes, environment). See `perfbench/README.md`.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import restage_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CLI_CODE = "import sys; from torusforge.cli import main; sys.exit(main())"
SETUP_PROBES = 5
# every child still running this long after the benchmark started is
# killed, so a run always ends within 180 s
RUN_LIMIT_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# name -> (expected mesh vertex count, CLI argument lists run in order)
WORKLOADS = {
    "torus3d": (2000, [["run", "--dim", "3"]]),
    "cm6d": (6000, [["run", "--dim", "6", "--projection", "pca",
                     "--format", "ply"]]),
    "restage": (restage_input.VERTICES, [["project", "--projection", "pca"],
                                         ["export", "--format", "ply"],
                                         ["validate"]]),
}
SAMPLERS = ("sample_torus_revolution", "sample_standard_map_torus",
            "sample_center_manifold_torus")


class Child:
    """Starts CLI processes and reads each one's own rusage."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv, log_path):
        """Run argv to completion; return (exit code, wall s, maxrss MiB)."""
        with open(log_path, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=log)
            killer = threading.Timer(max(0.0, self.deadline - start),
                                     proc.kill)
            killer.start()
            try:
                # os.wait4 gives this child's rusage alone; RUSAGE_CHILDREN
                # would be the high-water mark of every child so far
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0


# face colours of the PLY sidedness export (torusforge.projection)
RED, BLUE = (220, 50, 47), (38, 139, 210)


def triangle_hash(tris):
    """sha256 of the triangle set with winding kept: each triangle is
    rotated so that its smallest vertex id comes first, then the rows are
    sorted."""
    first = np.argmin(tris, axis=1)[:, None]
    tris = np.take_along_axis(tris, (first + np.arange(3)) % 3, axis=1)
    tris = tris[np.lexsort(tris.T[::-1])]
    return hashlib.sha256(np.ascontiguousarray(tris).tobytes()).hexdigest()


def winding_problems(tris):
    """A closed, consistently wound surface walks every undirected edge
    once in each direction."""
    n = int(tris.max()) + 1
    tail, head = tris.ravel(), np.roll(tris, -1, axis=1).ravel()
    forward = np.sort(tail * n + head)
    backward = np.sort(head * n + tail)
    if np.any(forward[1:] == forward[:-1]):
        return ["winding: an edge is walked twice in the same direction"]
    if not np.array_equal(forward, backward):
        return ["winding: an edge is not walked in both directions"]
    return []


def sidedness_colors(points, tris):
    """Per-face colour of the sidedness export, recomputed: red where the
    face normal points away from the mean of its vertices' neighbour
    rings, blue otherwise. Also returns a mask of the faces whose sign
    is clear of rounding; only those are compared."""
    n = len(points)
    pairs = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                            tris[:, [2, 0]]])
    pairs = np.unique(np.concatenate([pairs, pairs[:, ::-1]]) @ [n, 1])
    owner, nbr = np.divmod(pairs, n)
    ring = np.zeros_like(points)
    np.add.at(ring, owner, points[nbr])
    ring /= np.maximum(np.bincount(owner, minlength=n), 1)[:, None]
    pa, pb, pc = points[tris[:, 0]], points[tris[:, 1]], points[tris[:, 2]]
    normal = np.cross(pb - pa, pc - pa)
    offset = (pa + pb + pc) / 3.0 - ring[tris].mean(axis=1)
    side = np.einsum("ij,ij->i", normal, offset)
    scale = np.linalg.norm(normal, axis=1) * np.linalg.norm(offset, axis=1)
    colors = np.where((side >= 0)[:, None], RED, BLUE)
    return colors, np.abs(side) > 1e-9 * scale


def read_export(path):
    """(points, faces, colours or None) of the exported OBJ or PLY."""
    if path.suffix == ".obj":
        verts, faces = [], []
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("v "):
                    verts.append(line.split()[1:4])
                elif line.startswith("f "):
                    faces.append(line.split()[1:])
        return (np.asarray(verts, dtype=float),
                np.asarray(faces, dtype="<i8") - 1, None)
    data = path.read_bytes()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    header = data[:end].decode("ascii").split("\n")
    counts = {w[1]: int(w[2]) for w in map(str.split, header)
              if w[:1] == ["element"]}
    nverts, nfaces = counts["vertex"], counts["face"]
    fields = [("count", "u1"), ("ids", "<i4", 3)]
    if "property uchar red" in header:
        fields.append(("rgb", "u1", 3))
    points = np.frombuffer(data, dtype="<f8", count=3 * nverts, offset=end)
    faces = np.frombuffer(data, dtype=fields, count=nfaces,
                          offset=end + 24 * nverts)
    if np.any(faces["count"] != 3):
        raise ValueError("a PLY face is not a triangle")
    return (points.reshape(-1, 3), faces["ids"].astype("<i8"),
            faces["rgb"] if len(fields) == 3 else None)


def export_problems(path, points, tris):
    """The export must hold exactly the projected mesh, in order, and PLY
    colours must match the faces' sidedness."""
    try:
        ex_points, ex_faces, ex_colors = read_export(path)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    problems = []
    if not np.array_equal(ex_points, points):
        problems.append(f"{path.name}: points differ from projected.json")
    if not np.array_equal(ex_faces, tris):
        problems.append(f"{path.name}: faces differ from projected.json")
    elif ex_colors is not None:
        want, sure = sidedness_colors(points, tris)
        if np.any((ex_colors != want).any(axis=1) & sure):
            problems.append(f"{path.name}: wrong sidedness colours")
    return problems


def check_outputs(out_dir, vertices):
    """Problems with one repetition's artifacts, and its triangle hash."""
    with open(out_dir / "validation.json", "r", encoding="ascii") as fh:
        val = json.load(fh)
    problems = [f"validation: {p}" for p in val["problems"]]
    if val["euler_characteristic"] != 0:
        problems.append(f"chi = {val['euler_characteristic']}")
    if val["vertices"] != vertices:
        problems.append(f"{val['vertices']} vertices, expected {vertices}")
    with open(out_dir / "projected.json", "r", encoding="ascii") as fh:
        projected = json.load(fh)
    points = np.asarray(projected["points"], dtype=float)
    tris = np.asarray(projected["triangles"], dtype="<i8").reshape(-1, 3)
    problems += winding_problems(tris)
    exported = [p for p in out_dir.iterdir() if p.stem == "mesh"
                and p.suffix in (".obj", ".ply")]
    if len(exported) != 1:
        problems.append(f"exported mesh files: {[p.name for p in exported]}")
    else:
        problems += export_problems(exported[0], points, tris)
    return problems, triangle_hash(tris)


def run_rep(child, workload, seed, out_dir, restage_path, spans_dir=None):
    """One repetition of the workload; traced when spans_dir is given."""
    vertices, steps = WORKLOADS[workload]
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    inputs = ()
    if restage_path is not None:
        # the stage commands read mesh.json from the output directory;
        # it is an input, not an artifact of the workload
        shutil.copyfile(restage_path, out_dir / "mesh.json")
        inputs = ("mesh.json",)
    rep = {"wall_s": 0.0, "peak_rss_mb": 0.0, "exit_codes": [],
           "spans_files": []}
    for i, step in enumerate(steps):
        args = [*step, "--seed", str(seed), "--output-dir", str(out_dir)]
        if spans_dir is None:
            argv = [sys.executable, "-c", CLI_CODE, *args]
        else:
            spans = spans_dir / f"spans{i}.json"
            rep["spans_files"].append(spans)
            argv = [sys.executable, str(HERE / "trace_cli.py"), str(spans),
                    *args]
        code, wall, rss = child.run(argv, out_dir.parent / "cli.log")
        rep["wall_s"] += wall
        rep["peak_rss_mb"] = max(rep["peak_rss_mb"], rss)
        rep["exit_codes"].append(code)
        if code != 0:
            break
    rep["artifact_mb"] = sum(p.stat().st_size for p in out_dir.iterdir()
                             if p.name not in inputs) / 1e6
    if any(rep["exit_codes"]):
        rep["problems"] = [f"exit codes {rep['exit_codes']}"]
        rep["triangle_sha256"] = None
    else:
        rep["problems"], rep["triangle_sha256"] = check_outputs(out_dir,
                                                               vertices)
        shutil.rmtree(out_dir)
    return rep


def make_restage_input(seed, path):
    """Write the seeded restage mesh.json, checked by validate_mesh."""
    sys.path.insert(0, str(SRC))
    from torusforge.mesher import validate_mesh
    points, triangles = restage_input.restage_mesh(seed)
    report = validate_mesh(triangles, strict=False)
    if (report["problems"] or report["euler_characteristic"] != 0
            or report["vertices"] != restage_input.VERTICES
            or report["faces"] != restage_input.FACES):
        raise SystemExit(f"restage input failed validation: {report}")
    restage_input.write_mesh_json(path, points, triangles, report)


def layer_metrics(runs):
    """Per-layer metrics from the traced processes of one repetition.

    A metric is None when its span or log record never appeared."""
    spans = [s for run in runs for s in run["spans"]]

    def dur(*names):
        hit = [s["end"] - s["start"] for s in spans if s["name"] in names]
        return sum(hit) if hit else None

    def count(name, key, agg=sum):
        hit = [s["counters"][key] for s in spans
               if s["name"] == name and key in s["counters"]]
        return agg(hit) if hit else None

    def ratio(num, den):
        return None if num is None or not den else num / den

    m = {
        "samplers.wall_s": dur(*SAMPLERS),
        "knn.wall_s": dur("build_knn_graph"),
        "knn.edges": count("build_knn_graph", "edges"),
        "cycles.wall_s": dur("minimum_cycle_basis", "classify_cycles"),
        "cycles.rank": count("minimum_cycle_basis", "rank"),
        "cycles.generator_hops": count("classify_cycles", "generator_hops"),
        "cycles.json_s": dur("export_cycles_json"),
        "cycles.json_mb": count("export_cycles_json", "mb"),
        "oneforms.wall_s": dur("assemble_system", "solve_oneforms"),
        "oneforms.period_error": count("solve_oneforms", "period_error",
                                       max),
        "oneforms.closed_error": count("solve_oneforms", "closed_error",
                                       max),
        "mesher.merge_s": dur("merge_patches"),
        "mesher.rounds": count("merge_patches", "rounds"),
        "mesher.faces": count("merge_patches", "faces"),
        "mesher.validate_s": dur("validate_mesh"),
        "mesher.json_write_s": dur("export_mesh_json"),
        "mesher.json_read_s": dur("load_mesh_json"),
        "mesher.json_mb": (count("export_mesh_json", "mb", max)
                           or count("load_mesh_json", "mb", max)),
        "orientation.wall_s": dur("orient_mesh"),
        "orientation.flips": count("orient_mesh", "flips"),
        "projection.project_s": dur("project"),
        "projection.export_s": dur("export_mesh"),
    }
    m["cycles.triangle_share"] = ratio(
        count("minimum_cycle_basis", "triangles"), m["cycles.rank"])
    m["mesher.faces_per_round"] = ratio(m["mesher.faces"],
                                        m["mesher.rounds"])
    basis = [s for s in spans if s["name"] == "minimum_cycle_basis"]
    m["cycles.cpu_s"] = sum(s["cpu_s"] for s in basis) if basis else None
    m["cycles.maxrss_mb"] = max((s["maxrss_mb"] for s in basis),
                                default=None)
    for key in ("cycles.banded_s", "cycles.support_s", "cycles.bands",
                "cycles.support_slots", "cycles.fallbacks"):
        m[key] = None
    for run in runs:
        span = next((s for s in run["spans"]
                     if s["name"] == "minimum_cycle_basis"), None)
        if span is None:
            continue
        inside = [r for r in run["records"]
                  if r["logger"] == "torusforge.cycles"
                  and span["start"] <= r["t"] <= span["end"]]
        m["cycles.bands"] = sum(r["msg"].startswith("cycle band")
                                for r in inside)
        m["cycles.fallbacks"] = sum("fundamental cycles" in r["msg"]
                                    for r in inside)
        support = next((r for r in inside
                        if r["msg"].startswith("support-vector phase")), None)
        if support is not None:
            m["cycles.banded_s"] = support["t"] - span["start"]
            m["cycles.support_s"] = span["end"] - support["t"]
            m["cycles.support_slots"] = support["args"][0]
    total = sum(run["total_s"] for run in runs)
    m["trace.total_s"] = total
    m["cli.self_s"] = total - sum(s["end"] - s["start"] for s in spans)
    return m


def trace_problems(runs):
    """Spans must be disjoint and inside their process's traced total,
    so that the spans plus cli.self_s add up to the traced total."""
    problems = []
    for i, run in enumerate(runs):
        prev_end = 0.0
        for s in sorted(run["spans"], key=lambda s: s["start"]):
            if s["start"] < prev_end or s["end"] > run["total_s"]:
                problems.append(f"process {i}: span {s['name']} overlaps "
                                "another span or the process end")
            prev_end = max(prev_end, s["end"])
    return problems


def median_summary(values):
    values = sorted(values)
    out = {"median": statistics.median(values), "n": len(values),
           "min": values[0], "max": values[-1]}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


def environment():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def untraced(child, args, work, restage_path):
    """End-to-end metrics: setup probes, then repetitions for --seconds."""
    setup = []
    for _ in range(SETUP_PROBES):
        code, wall, _ = child.run([sys.executable, "-c",
                                   "import torusforge.cli"],
                                  work / "setup.log")
        if code != 0:
            raise SystemExit(f"import torusforge.cli failed ({code}); "
                             f"see {work / 'setup.log'}")
        setup.append(wall)
    reps = []
    end = time.perf_counter() + args.seconds
    while not reps or time.perf_counter() < end:
        reps.append(run_rep(child, args.workload, args.seed,
                            work / f"rep{len(reps)}", restage_path))
    first = reps[0]["triangle_sha256"]
    for rep in reps[1:]:
        if rep["triangle_sha256"] != first:
            rep["problems"].append("triangle set differs from repetition 0")
    ok = [r for r in reps if not r["problems"]]
    values = {
        "wall_s": median_summary([r["wall_s"] for r in reps]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": median_summary(setup),
        "artifact_mb": statistics.median(r["artifact_mb"] for r in reps),
        "ok_ratio": len(ok) / len(reps),
    }
    metrics = {k: (v["median"] if isinstance(v, dict) else v)
               for k, v in values.items()}
    detail = {"summary": values, "setup_probes_s": setup,
              "triangle_sha256": first}
    return reps, metrics, detail


def traced(child, args, work, restage_path):
    """Per-layer metrics from one traced repetition, checked against one
    untraced repetition of the same seed."""
    plain = run_rep(child, args.workload, args.seed, work / "untraced",
                    restage_path)
    spans_dir = work / "spans"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir()
    rep = run_rep(child, args.workload, args.seed, work / "traced",
                  restage_path, spans_dir=spans_dir)
    runs = []
    for path in rep["spans_files"]:
        if path.is_file():  # a failed step writes none
            with open(path, "r", encoding="utf-8") as fh:
                runs.append(json.load(fh))
    if rep["triangle_sha256"] != plain["triangle_sha256"]:
        rep["problems"].append("traced triangle set differs from untraced")
    rep["problems"].extend(trace_problems(runs))
    metrics = {} if rep["problems"] else layer_metrics(runs)
    metrics["trace.overhead_s"] = rep["wall_s"] - plain["wall_s"]
    detail = {"triangle_sha256": plain["triangle_sha256"],
              "absent_calls": sorted({n for r in runs for n in r["absent"]}),
              # a counter a later API no longer yields is absent, and the
              # reason is kept here; the span and other metrics still count
              "counter_errors": [f"{s['name']}.{key}: {err}"
                                 for r in runs for s in r["spans"]
                                 for key, err in s.get("counter_errors",
                                                       {}).items()],
              "spans": [[(s["name"], s["end"] - s["start"])
                         for s in r["spans"]] for r in runs]}
    rep["spans_files"] = [str(p) for p in rep["spans_files"]]
    return [plain, rep], metrics, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "torusforge" / "cli.py").is_file():
        print(f"no torusforge sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = WORK / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    restage_path = None
    if args.workload == "restage":
        restage_path = work / "restage-input.json"
        make_restage_input(args.seed, restage_path)
    child = Child(started + RUN_LIMIT_S)
    measure = traced if args.trace else untraced
    reps, values, detail = measure(child, args, work, restage_path)
    if restage_path is not None:
        restage_path.unlink()

    metrics, absent = {}, []
    for spec_metric in wanted:
        name = spec_metric["name"]
        value = values.get(name)
        if value is None:
            # a layer that did not run on this workload, or a call or
            # log record a later version no longer has
            absent.append(name)
            value = 0.0
        metrics[name] = {"value": value, "unit": spec_metric["unit"]}
    failed = sum(bool(r["problems"]) for r in reps)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, environment=environment(),
                  absent_metrics=absent, repetitions=reps,
                  run_s=time.perf_counter() - started)
    with open(WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
              ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({"detail": detail}, sort_keys=True, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
