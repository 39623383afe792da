"""Toroidal point clouds in any embedding dimension D >= 3, plus CSV I/O.

Three samplers: a synthetic torus of revolution (3D), the product of two
Chirikov standard maps embedded on the Clifford torus (4D), and the exact
linear center-manifold torus at a collinear CR3BP libration point (6D,
position and velocity components both included), whose two frequencies
and modes have a closed form in the point's position.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import cr3bp
from .errors import ConfigError

log = logging.getLogger("torusforge.samplers")

PROVENANCES = ("synthetic", "standard_map", "cr3bp_linear", "external")


@dataclass(frozen=True)
class PointCloud:
    """N points in R^D, any D >= 3 (projection needs three axes)."""

    points: np.ndarray
    provenance: str = "external"

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] < 3:
            raise ConfigError(f"points must be (N, D) with D >= 3, got "
                              f"shape {pts.shape}")
        if pts.shape[0] < 4:
            raise ConfigError(f"need at least 4 points, got {pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("non-finite coordinates in point cloud")
        if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
            raise ConfigError("exact duplicate points in cloud")
        if self.provenance not in PROVENANCES:
            raise ConfigError(f"unknown provenance {self.provenance!r}")

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def n(self):
        return self.points.shape[0]


def sample_torus_revolution(R, r, N, seed, distribution):
    """Sample N points on the torus of revolution with radii R > r > 0.

    Points are ((R + r cos v) cos u, (R + r cos v) sin u, r sin v) with the
    (u, v) angles drawn by `distribution`: "grid" (a jittered grid),
    "fibonacci" or "random". Deterministic for a fixed seed, and returns
    exactly N points.
    """
    if not (R > r > 0):
        raise ConfigError(f"need R > r > 0, got R={R}, r={r}")
    N = int(N)
    if N < 16:
        raise ConfigError(f"need N >= 16, got {N}")
    rng = np.random.default_rng(seed)
    if distribution == "grid":
        # cells roughly square on the surface: nu/nv ~ R/r; every row gets
        # floor-or-ceil many cells so the grid never has empty cells
        nu = max(4, round(np.sqrt(N * R / r)))
        nv = max(4, round(N / nu))
        counts = np.full(nv, N // nv, dtype=np.int64)
        bump = np.linspace(0, nv, N % nv, endpoint=False).astype(np.int64)
        counts[bump] += 1
        j = np.repeat(np.arange(nv), counts)
        i = np.concatenate([np.arange(c) for c in counts])
        row_len = np.repeat(counts, counts)
        # jitter within the central half of each cell: keeps the sample
        # irregular while bounding the minimum point separation
        u = 2.0 * np.pi * (i + 0.25 + 0.5 * rng.random(N)) / row_len
        v = 2.0 * np.pi * (j + 0.25 + 0.5 * rng.random(N)) / nv
    elif distribution == "fibonacci":
        golden = (np.sqrt(5.0) - 1.0) / 2.0
        idx = np.arange(N)
        u = 2.0 * np.pi * ((idx * golden + rng.random()) % 1.0)
        v = 2.0 * np.pi * (idx + 0.5) / N
    elif distribution == "random":
        u = 2.0 * np.pi * rng.random(N)
        v = 2.0 * np.pi * rng.random(N)
    else:
        raise ConfigError(f"unknown distribution {distribution!r}")
    ring = R + r * np.cos(v)
    pts = np.column_stack([ring * np.cos(u), ring * np.sin(u), r * np.sin(v)])
    return PointCloud(pts, provenance="synthetic")


def iterate_standard_map(K1, K2, theta1, theta2, p1, p2, N):
    """Raw (theta1, p1, theta2, p2) iterates, shape (N, 4), initial included,
    of the product of two Chirikov standard maps: p' = p + K sin(theta),
    theta' = theta + p', both mod 2*pi."""
    if K1 < 0 or K2 < 0:
        raise ConfigError("stochasticity parameters must be >= 0")
    if N < 4:
        raise ConfigError("need at least 4 iterates")
    two_pi = 2.0 * np.pi
    out = np.empty((N, 4))
    for n in range(N):
        out[n] = (theta1 % two_pi, p1 % two_pi, theta2 % two_pi, p2 % two_pi)
        p1 = (p1 + K1 * np.sin(theta1)) % two_pi
        theta1 = (theta1 + p1) % two_pi
        p2 = (p2 + K2 * np.sin(theta2)) % two_pi
        theta2 = (theta2 + p2) % two_pi
    return out


def sample_standard_map_torus(K1, K2, theta1, theta2, p1, p2, N):
    """Iterate the product standard map and embed the angles on the
    Clifford torus (cos th1, sin th1, cos th2, sin th2) in 4D."""
    orbit = iterate_standard_map(K1, K2, theta1, theta2, p1, p2, N)
    th1, th2 = orbit[:, 0], orbit[:, 2]
    pts = np.column_stack([np.cos(th1), np.sin(th1), np.cos(th2), np.sin(th2)])
    return PointCloud(pts, provenance="standard_map")


def _pick_time_step(om_p, om_v, N):
    """Deterministic time step giving good phase coverage of the 2-torus.

    Samples along the linear flow land on a rank-1 lattice in phase space;
    the step is chosen from a golden-ratio family by minimizing the count
    of empty bins in a phase histogram.
    """
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    g = max(8, int(np.sqrt(N / 3.0)))
    k = np.arange(N)
    best = None
    for base in (om_p, om_v):
        for j in range(24):
            dt = 2.0 * np.pi * (j + golden) / base
            f1 = (k * (dt * om_p / (2.0 * np.pi))) % 1.0
            f2 = (k * (dt * om_v / (2.0 * np.pi))) % 1.0
            hist = np.zeros((g, g), dtype=bool)
            hist[(f1 * g).astype(int) % g, (f2 * g).astype(int) % g] = True
            empty = g * g - int(hist.sum())
            key = (empty, dt)
            if best is None or key < best[0]:
                best = (key, dt)
    return best[1]


def _linear_flow(mu, point, amp_planar, amp_vertical):
    """(om_p, om_v, orbit): the center frequencies at the collinear point
    labelled `point` and the linear flow on its center manifold, in
    closed form (Richardson, Celestial Mechanics 22, 1980).

    With c = (1 - mu)/|x + mu|^3 + mu/|x - 1 + mu|^3 at the point's x,
    c > 1 at every collinear point, the vertical frequency is om_v =
    sqrt(c), the planar one om_p^2 = (2 - c + sqrt(9c^2 - 8c))/2, and the
    planar mode's y excursion is kappa = (om_p^2 + 1 + 2c)/(2 om_p) > 1
    times its x excursion. orbit(t), for an array of times t, is the
    point plus (-a cos om_p t / kappa, a sin om_p t, b sin om_v t) and
    its time derivative, as (len(t), 6), with a = amp_planar and b =
    amp_vertical each mode's largest positional excursion."""
    if point not in ("L1", "L2", "L3"):
        raise ConfigError(f"{point!r} is not a collinear libration point; "
                          f"choose from L1, L2, L3")
    x = next(p for p in cr3bp.libration_points(mu)
             if p.label == point).position[0]
    c = (1.0 - mu) / abs(x + mu) ** 3 + mu / abs(x - 1.0 + mu) ** 3
    om_v = np.sqrt(c)
    om_p = np.sqrt((2.0 - c + np.sqrt(9.0 * c * c - 8.0 * c)) / 2.0)
    kappa = (om_p ** 2 + 1.0 + 2.0 * c) / (2.0 * om_p)
    a, b = amp_planar, amp_vertical

    def orbit(t):
        cp, sp = np.cos(om_p * t), np.sin(om_p * t)
        cv, sv = np.cos(om_v * t), np.sin(om_v * t)
        return np.column_stack([
            x - a / kappa * cp, a * sp, b * sv,
            a * om_p / kappa * sp, a * om_p * cp, b * om_v * cv])
    return om_p, om_v, orbit


def sample_center_manifold_torus(mu, point, amp_planar, amp_vertical, N):
    """Sample the exact flat 2-torus of the linearized center manifold.

    The closed-form flow of `_linear_flow` at the collinear point
    labelled `point` ("L1", "L2" or "L3") evaluated on N times k dt, with
    the planar and vertical modes' positional excursions amp_planar and
    amp_vertical, both positive (with one zero the samples lie on one
    mode's closed curve), and dt picked for an even phase coverage.
    """
    if not (amp_planar > 0 and amp_vertical > 0):
        raise ConfigError(f"amplitudes must both be positive (one zero leaves "
                          f"a closed curve, not a torus), got amp_planar="
                          f"{amp_planar}, amp_vertical={amp_vertical}")
    om_p, om_v, orbit = _linear_flow(mu, point, amp_planar, amp_vertical)
    N = int(N)
    if N < 4:
        raise ConfigError("need N >= 4")
    pts = orbit(np.arange(N) * _pick_time_step(om_p, om_v, N))
    return PointCloud(pts, provenance="cr3bp_linear")


def save_point_cloud(path, cloud):
    """Write a cloud as CSV, whatever the path's extension: a "# dim=D"
    and a "# provenance=<name>" line, then one row of 17 significant
    digits per point."""
    line = ",".join(["%.17g"] * cloud.dim) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# dim={cloud.dim}\n# provenance={cloud.provenance}\n")
        fh.writelines(line % tuple(row) for row in cloud.points.tolist())


def _read_csv_cloud(path):
    rows = []
    declared, provenance = None, "external"
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text.startswith("#"):
                rows.append(text)   # np.loadtxt skips the empty ones
                continue
            body = text[1:].strip()
            if body.startswith("provenance="):
                provenance = body[len("provenance="):]
            elif body.startswith("dim="):
                try:
                    declared = int(body[4:])
                except ValueError:
                    raise ConfigError(f"bad header at line {lineno}: "
                                      f"{text!r}") from None
    if not any(rows):
        raise ConfigError("no data rows")
    try:
        pts = np.loadtxt(rows, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"parse error: {exc}") from None
    if declared is not None and declared != pts.shape[1]:
        raise ConfigError(
            f"header dim={declared} but rows have {pts.shape[1]} columns")
    uniq, first = np.unique(pts, axis=0, return_index=True)
    if uniq.shape[0] != pts.shape[0]:
        dropped = pts.shape[0] - uniq.shape[0]
        log.warning("%s: removed %d exact duplicate point(s)", path, dropped)
        pts = pts[np.sort(first)]
    return PointCloud(pts, provenance)


def load_point_cloud(path):
    """Load a cloud from CSV, whatever the path's extension, as
    `save_point_cloud` writes it: optional "#" lines (a "# dim=D" line must
    match the row width; without a "# provenance=" line the cloud is
    "external"), then rows of D >= 3 comma-separated numbers, each row as
    `np.loadtxt` reads it: text after a "#" is a comment, and digit-group
    underscores ("1_0") are refused.

    Exact duplicate rows are removed (first occurrence kept) with a logged
    warning count. A file that is not ASCII text, or not such rows, raises
    `ConfigError` naming the path.
    """
    try:
        return _read_csv_cloud(path)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not ASCII text: {exc}") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
