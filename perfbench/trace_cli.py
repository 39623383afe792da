"""Run one torusforge CLI invocation in-process, with a span around every
layer call the CLI makes.

Usage (with the repository's `src` on PYTHONPATH):

    python perfbench/trace_cli.py SPANS_JSON <cli arguments...>

The spans are recorded from outside the package: each public function
that `torusforge.cli` calls is replaced, in the `torusforge.cli`
namespace only, by a wrapper that times it. Calls a layer makes inside
the package are therefore never double counted. The INFO and WARNING
records of the `torusforge.*` loggers are captured with their
`perf_counter` time, so a span can be split at a log record. Then
`torusforge.cli.main` itself runs, so the traced path and its exit code
are the CLI's own.
"""

import json
import logging
import numbers
import os
import resource
import sys
import time

from torusforge import cli

LAYER_CALLS = (
    "sample_torus_revolution", "sample_standard_map_torus",
    "sample_center_manifold_torus", "build_knn_graph",
    "minimum_cycle_basis", "classify_cycles", "export_cycles_json",
    "assemble_system", "solve_oneforms", "merge_patches", "orient_mesh",
    "export_mesh_json", "load_mesh_json", "validate_mesh", "project",
    "export_mesh",
)


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _file_mb(path):
    return os.path.getsize(path) / 1e6


def _plain(value):
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    return str(value)


def _closed_error(result):
    diag = result.diagnostics
    return max(diag["u"]["max_trivial_cycle_error"],
               diag["v"]["max_trivial_cycle_error"])


# layer call -> counter -> function of (call arguments, return value)
COUNTERS = {
    "build_knn_graph": {"edges": lambda args, res: len(res.edges)},
    "minimum_cycle_basis": {
        "rank": lambda args, res: len(res.cycles),
        "triangles": lambda args, res: sum(len(c.edges) == 3
                                           for c in res.cycles)},
    "classify_cycles": {
        "generator_hops": lambda args, res: (len(res.poloidal.edges)
                                             + len(res.toroidal.edges))},
    "solve_oneforms": {
        "period_error": lambda args, res: res.diagnostics["period_error"],
        "closed_error": lambda args, res: _closed_error(res)},
    "merge_patches": {
        "rounds": lambda args, res: res.report["rounds_used"],
        "faces": lambda args, res: len(res.triangles)},
    "orient_mesh": {
        "flips": lambda args, res: int(res.orientation_parity.sum())},
    "export_cycles_json": {"mb": lambda args, res: _file_mb(args[0])},
    "export_mesh_json": {"mb": lambda args, res: _file_mb(args[0])},
    "load_mesh_json": {"mb": lambda args, res: _file_mb(args[0])},
}


class Tracer(logging.Handler):
    """Collects spans and `torusforge.*` log records in memory."""

    def __init__(self):
        super().__init__(level=logging.INFO)
        self.t0 = None            # set when the traced CLI call starts
        self.spans = []
        self.records = []
        self.absent = []

    def emit(self, record):
        self.records.append({
            "t": time.perf_counter() - self.t0,
            "logger": record.name,
            "level": record.levelname,
            "msg": str(record.msg),
            "args": [_plain(a) for a in (record.args or ())],
        })

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            cpu0 = time.process_time()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            span = {"name": name, "start": start - self.t0,
                    "end": end - self.t0,
                    "cpu_s": time.process_time() - cpu0,
                    "maxrss_mb": _maxrss_mb()}
            span["counters"], errors = {}, {}
            for key, counter in COUNTERS.get(name, {}).items():
                try:
                    span["counters"][key] = counter(args, result)
                except (AttributeError, KeyError, TypeError, IndexError,
                        OSError) as exc:
                    # a later API change loses this counter, not the span
                    errors[key] = f"{type(exc).__name__}: {exc}"
            if errors:
                span["counter_errors"] = errors
            self.spans.append(span)
            return result
        return traced

    def install(self):
        for name in LAYER_CALLS:
            fn = getattr(cli, name, None)
            if fn is None:
                self.absent.append(name)
            else:
                setattr(cli, name, self.wrap(name, fn))
        pkg_log = logging.getLogger("torusforge")
        pkg_log.setLevel(logging.INFO)
        pkg_log.addHandler(self)
        # main's root handler would otherwise print every INFO record
        pkg_log.propagate = False


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.t0 = time.perf_counter()
    code = cli.main(argv)
    total = time.perf_counter() - tracer.t0
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"total_s": total, "exit_code": code, "spans": tracer.spans,
                   "records": tracer.records, "absent": tracer.absent,
                   "maxrss_mb": _maxrss_mb()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
