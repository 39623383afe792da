"""A sweep over small clouds through `cli.main`, in process: every built-in
sampler and torus distribution, k = 2, 3, 8, 12 and 30, the three
collinear points, mass parameters, radii, amplitudes and momenta at their
edges, and tori scaled over many orders of magnitude. Each case pins its
exit code and, for a stop, the error class of its one JSON line (and,
where the message names the remedy, a pattern it must match), so that a
changed outcome is a visible decision. No case may end in a traceback."""

import json
import re
import time

import pytest
from scipy.spatial import QhullError

from torusforge import cli


def torus(scale=1.0, **keys):
    return {"kind": "torus_revolution", "N": 800, "R": 2.0 * scale,
            "r": 0.5 * scale, **keys}


def cm(**keys):
    return {"kind": "center_manifold", "N": 800, **keys}


def stdmap(**keys):
    return {"kind": "standard_map", "N": 800, **keys}


def raises_today(raises, why):
    """A case that still ends in a traceback (ROADMAP item 14): a strict
    xfail expecting `raises`."""
    return pytest.mark.xfail(strict=True, raises=raises, reason=why)


def case(name, sampler, k, code=0, error=None, match="", marks=()):
    """`run` on `sampler` with k neighbours exits `code`; a stop's JSON
    line names `error`, and its message matches `match`."""
    return pytest.param(sampler, k, code, error, match, id=name, marks=marks)


GRID, FIB, RANDOM = (torus(distribution=d)
                     for d in ("grid", "fibonacci", "random"))
# the uncoupled product map: each orbit a rotation on a circle
FLAT_MAP = stdmap(K1=0, K2=0)
KDTREE_OVERFLOW = raises_today(IndexError, "cKDTree's squared distances "
                               "overflow and the query pads with index N")

CASES = [
    case("torus-grid-k2", GRID, 2, 3, "DisconnectedGraphError"),
    case("torus-grid-k3", GRID, 3, 3, "GeneratorClassificationError"),
    case("torus-grid-k8", GRID, 8),
    # the densest k here, and the slowest case (about 2 s)
    case("torus-grid-k30", GRID, 30),
    case("torus-fibonacci-k3", FIB, 3),
    case("torus-fibonacci-k8", FIB, 8),
    case("torus-random-k3", RANDOM, 3, 3, "DisconnectedGraphError"),
    case("torus-random-k8", RANDOM, 8, 3, "GeneratorClassificationError"),
    # nearly a horn torus, and a thread whose graph sees one circle
    case("torus-r1.999", torus(r=1.999), 8, 3, "DisconnectedGraphError"),
    case("torus-r1e-6", torus(r=1e-6), 8, 3, "GeneratorClassificationError"),
    case("stdmap", stdmap(), 8, 3, "GeneratorClassificationError"),
    case("stdmap-K10", stdmap(K1=10, K2=10), 8),
    case("stdmap-K1e6", stdmap(K1=1e6, K2=1e6), 8),
    # at k = 8 the forms do not fit the edge lengths, and the stop says
    # what to do; k = 12 meshes
    case("stdmap-K0", FLAT_MAP, 8, 3, "ResidualError", "raise k"),
    case("stdmap-K0-k12", FLAT_MAP, 12),
    # zero momenta hold the map at a fixed point: all iterates equal
    case("stdmap-p0", stdmap(p1=0, p2=0), 8, 2, "ConfigError", "duplicate"),
    *(case(f"cm-{point}", cm(point=point), 8) for point in ("L1", "L2", "L3")),
    case("cm-mu0.5-L3", cm(mu=0.5, point="L3"), 8),
    # L1 and L2 lie about (mu/3)^(1/3) from the secondary
    case("cm-mu1e-300", cm(mu=1e-300), 8, 2, "ConfigError",
         r"^L1 at mu=1e-300 .* 1e-09 margin"),
    case("cm-amp1e-12", cm(amp_planar=1e-12, amp_vertical=1e-12), 8),
    case("cm-amp1e3", cm(amp_planar=1e3, amp_vertical=1e3), 8),
    case("cm-planar1e-6", cm(amp_planar=1e-6, amp_vertical=1), 8, 3,
         "GeneratorClassificationError"),
    case("cm-amp1e300", cm(amp_planar=1e300, amp_vertical=1e300), 8, None,
         marks=KDTREE_OVERFLOW),
    case("torus-x1e12", torus(1e12), 8),
    case("torus-x1e-12", torus(1e-12), 8),
    # squared distances underflow to 0, and the graph refuses the lengths
    # (item 14 will change the cause)
    *(case(f"torus-x{s}", torus(float(s)), 8, 2, "ConfigError",
           "non-positive") for s in ("1e-200", "1e-250", "1e-300")),
    case("torus-x1e100", torus(1e100), 8, None,
         marks=raises_today((RuntimeWarning, QhullError),
                            "the chart metric's products overflow (a "
                            "RuntimeWarning, which this suite raises), then "
                            "Qhull refuses chart coordinates near 1e100")),
    *(case(f"torus-x{s}", torus(float(s)), 8, None, marks=KDTREE_OVERFLOW)
      for s in ("1e200", "1e250", "1e300")),
]


@pytest.mark.parametrize("sampler, k, code, error, match", CASES)
def test_config_sweep_meshes_or_stops_by_name(sampler, k, code, error, match,
                                              tmp_path, capsys):
    """`run` on the case meshes a closed torus (exit 0), or stops with
    one JSON line on stderr naming a pipeline error, whose message
    matches `match`; within 10 s. A case pinned with no code need only
    end without a traceback."""
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
        err = json.loads(lines[-1])
        assert err["error"] == error
        assert re.search(match, err["message"]), err["message"]
    else:
        report = json.loads((tmp_path / "validation.json").read_text())
        assert report["problems"] == []
        assert report["euler_characteristic"] == 0
