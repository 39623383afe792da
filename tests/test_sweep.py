"""A sweep over small clouds through `cli.main`, in process: every built-in
sampler and torus distribution, k = 3 and 8, the three collinear points,
and tori scaled over many orders of magnitude. Each case pins its exit
code and, for a stop, the error class of its one JSON line, so that a
changed outcome is a visible decision. No case may end in a traceback."""

import json
import time

import pytest
from scipy.spatial import QhullError

from torusforge import cli


def torus(scale=1.0, **keys):
    return {"kind": "torus_revolution", "N": 800, "R": 2.0 * scale,
            "r": 0.5 * scale, **keys}


def raises_today(raises, why):
    """A case that still ends in a traceback (ROADMAP item 14): a strict
    xfail expecting `raises`."""
    return pytest.mark.xfail(strict=True, raises=raises, reason=why)


CASES = [
    pytest.param(torus(distribution="grid"), 3, 3,
                 "GeneratorClassificationError", id="torus-grid-k3"),
    pytest.param(torus(distribution="grid"), 8, 0, None, id="torus-grid-k8"),
    pytest.param(torus(distribution="fibonacci"), 3, 0, None,
                 id="torus-fibonacci-k3"),
    pytest.param(torus(distribution="fibonacci"), 8, 0, None,
                 id="torus-fibonacci-k8"),
    pytest.param(torus(distribution="random"), 3, 3,
                 "DisconnectedGraphError", id="torus-random-k3"),
    pytest.param(torus(distribution="random"), 8, 3,
                 "GeneratorClassificationError", id="torus-random-k8"),
    pytest.param({"kind": "standard_map", "N": 800}, 8, 3,
                 "GeneratorClassificationError", id="stdmap"),
    pytest.param({"kind": "standard_map", "N": 800, "K1": 10, "K2": 10}, 8,
                 0, None, id="stdmap-K10"),
    pytest.param({"kind": "standard_map", "N": 800, "K1": 1e6, "K2": 1e6},
                 8, 0, None, id="stdmap-K1e6"),
    *(pytest.param({"kind": "center_manifold", "N": 800, "point": point}, 8,
                   0, None, id=f"cm-{point}") for point in ("L1", "L2", "L3")),
    pytest.param(torus(1e12), 8, 0, None, id="torus-x1e12"),
    pytest.param(torus(1e-12), 8, 0, None, id="torus-x1e-12"),
    # squared distances underflow to 0, and the graph refuses the lengths
    pytest.param(torus(1e-200), 8, 2, "ConfigError", id="torus-x1e-200"),
    pytest.param(torus(1e100), 8, None, None, id="torus-x1e100",
                 marks=raises_today(
                     (RuntimeWarning, QhullError),
                     "the chart metric's products overflow (a RuntimeWarning, "
                     "which this suite raises), then Qhull refuses chart "
                     "coordinates near 1e100")),
    pytest.param(torus(1e200), 8, None, None, id="torus-x1e200",
                 marks=raises_today(
                     IndexError, "cKDTree's squared distances overflow and "
                     "the query pads with index N")),
]


@pytest.mark.parametrize("sampler, k, code, error", CASES)
def test_config_sweep_meshes_or_stops_by_name(sampler, k, code, error,
                                              tmp_path, capsys):
    """`run` on the case meshes a closed torus (exit 0), or stops with
    one JSON line on stderr naming a pipeline error; within 10 s. A case
    pinned with no code need only end without a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sampler": sampler, "k": k}))
    start = time.perf_counter()
    got = cli.main(["run", "--config", str(cfg),
                    "--output-dir", str(tmp_path)])
    assert time.perf_counter() - start < 10.0
    lines = capsys.readouterr().err.splitlines()
    if code is None:
        assert got in (0, 2, 3, 4)
    else:
        assert got == code
    if got:
        assert json.loads(lines[-1])["error"] == error
    else:
        report = json.loads((tmp_path / "validation.json").read_text())
        assert report["problems"] == []
        assert report["euler_characteristic"] == 0
