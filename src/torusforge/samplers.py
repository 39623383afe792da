"""Toroidal point-cloud samplers in 3D-6D embedding spaces, plus cloud I/O.

Three sources: a synthetic torus of revolution (3D), the product of two
Chirikov standard maps embedded on the Clifford torus (4D), and the exact
linear center-manifold torus at a collinear CR3BP libration point (6D,
position and velocity components both included).
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import cr3bp
from .errors import ConfigError

log = logging.getLogger("torusforge.samplers")

PROVENANCES = ("synthetic", "standard_map", "cr3bp_linear", "cr3bp_integrated",
               "external")


@dataclass(frozen=True)
class PointCloud:
    """N points in a D-dimensional embedding space (D in 3..6)."""

    dim: int
    points: np.ndarray
    provenance: str = "external"

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        object.__setattr__(self, "points", pts)
        if self.dim not in (3, 4, 5, 6):
            raise ConfigError(f"dim={self.dim} not in 3..6")
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ConfigError(
                f"points shape {pts.shape} inconsistent with dim={self.dim}")
        if pts.shape[0] < 4:
            raise ConfigError(f"need at least 4 points, got {pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("non-finite coordinates in point cloud")
        if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
            raise ConfigError("exact duplicate points in cloud")
        if self.provenance not in PROVENANCES:
            raise ConfigError(f"unknown provenance {self.provenance!r}")

    @property
    def n(self):
        return self.points.shape[0]


def sample_torus_revolution(R, r, N, seed, distribution="grid"):
    """Sample N points on the torus of revolution with radii R > r > 0.

    Points are ((R + r cos v) cos u, (R + r cos v) sin u, r sin v) with the
    (u, v) angles drawn from a jittered grid by default ("fibonacci" and
    "random" distributions are also available). Deterministic for a fixed
    seed, and returns exactly N points.
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
    return PointCloud(dim=3, points=pts, provenance="synthetic")


@dataclass(frozen=True)
class StandardMapConfig:
    """Product of two Chirikov standard maps: p' = p + K sin(theta),
    theta' = theta + p', both mod 2*pi."""

    K1: float
    K2: float
    theta1: float = 0.0
    p1: float = 0.0
    theta2: float = 0.0
    p2: float = 0.0
    N: int = 1000

    def __post_init__(self):
        if self.K1 < 0 or self.K2 < 0:
            raise ConfigError("stochasticity parameters must be >= 0")
        if self.N < 4:
            raise ConfigError("need at least 4 iterates")


def iterate_standard_map(cfg):
    """Raw (theta1, p1, theta2, p2) iterates, shape (N, 4), initial included."""
    two_pi = 2.0 * np.pi
    th1, p1, th2, p2 = cfg.theta1, cfg.p1, cfg.theta2, cfg.p2
    out = np.empty((cfg.N, 4))
    for n in range(cfg.N):
        out[n] = (th1 % two_pi, p1 % two_pi, th2 % two_pi, p2 % two_pi)
        p1 = (p1 + cfg.K1 * np.sin(th1)) % two_pi
        th1 = (th1 + p1) % two_pi
        p2 = (p2 + cfg.K2 * np.sin(th2)) % two_pi
        th2 = (th2 + p2) % two_pi
    return out

def sample_standard_map_torus(cfg):
    """Iterate the product standard map and embed the angles on the
    Clifford torus (cos th1, sin th1, cos th2, sin th2) in 4D."""
    orbit = iterate_standard_map(cfg)
    th1 = orbit[:, 0]
    th2 = orbit[:, 2]
    pts = np.column_stack([np.cos(th1), np.sin(th1), np.cos(th2), np.sin(th2)])
    return PointCloud(dim=4, points=pts, provenance="standard_map")


def center_manifold_model(mu, point):
    """Linear model at a collinear libration point.

    Returns (J, omega_planar, omega_vertical, u_planar, u_vertical): the
    numerically formed 6x6 Jacobian of the vector field, the two center
    frequencies, and their complex eigenvectors with a deterministic phase
    convention (largest-magnitude component rotated to the positive real
    axis).
    """
    if point.label not in ("L1", "L2", "L3"):
        raise ConfigError(f"{point.label} is not a collinear libration point")
    J = cr3bp.jacobian(point.position, mu)
    vals, vecs = np.linalg.eig(J)
    scale = np.max(np.abs(vals))
    centers = [i for i in range(6)
               if abs(vals[i].real) < 1e-6 * scale and vals[i].imag > 0]
    if len(centers) != 2:
        raise ConfigError(
            f"expected two center eigenvalue pairs, found {len(centers)}")

    def _normalize(u):
        i = int(np.argmax(np.abs(u)))
        phase = u[i] / abs(u[i])
        return u / phase

    pairs = []
    for i in centers:
        u = _normalize(vecs[:, i])
        vertical_mass = abs(u[2]) ** 2 + abs(u[5]) ** 2
        pairs.append((vals[i].imag, u, vertical_mass / (np.abs(u) ** 2).sum()))
    pairs.sort(key=lambda t: t[2])
    (om_p, u_p, _), (om_v, u_v, _) = pairs
    return J, om_p, om_v, u_p, u_v


def _mode_scale(u, amp):
    """Scale factor making the positional excursion of mode u equal amp."""
    a = u[:3].real
    b = u[:3].imag
    sigma = np.linalg.svd(np.column_stack([a, -b]), compute_uv=False)[0]
    if sigma == 0.0:
        raise ConfigError("mode has no positional excursion")
    return amp / sigma


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


def sample_center_manifold_torus(mu, point, amp_planar, amp_vertical, N,
                                 dt=None):
    """Sample the exact flat 2-torus of the linearized center manifold.

    x(t) = Re(A e^(i om_p t) u_p) + Re(B e^(i om_v t) u_v) evaluated on N
    times, where (om, u) are the center eigenpairs of the 6x6 Jacobian at
    the collinear point and A, B scale the positional excursions to
    amp_planar / amp_vertical. `dt` forces a fixed sampling step (useful
    for verifying the linear dynamics).
    """
    if amp_planar < 0 or amp_vertical < 0 or max(amp_planar, amp_vertical) <= 0:
        raise ConfigError("amplitudes must be non-negative with at least one > 0")
    N = int(N)
    if N < 4:
        raise ConfigError("need N >= 4")
    _, om_p, om_v, u_p, u_v = center_manifold_model(mu, point)
    A = _mode_scale(u_p, amp_planar) if amp_planar > 0 else 0.0
    B = _mode_scale(u_v, amp_vertical) if amp_vertical > 0 else 0.0
    if dt is None:
        dt = _pick_time_step(om_p, om_v, N)
    t = np.arange(N) * float(dt)
    center = np.concatenate([point.position, np.zeros(3)])
    pts = (center[None, :]
           + (A * np.exp(1j * om_p * t)[:, None] * u_p[None, :]).real
           + (B * np.exp(1j * om_v * t)[:, None] * u_v[None, :]).real)
    return PointCloud(dim=6, points=pts, provenance="cr3bp_linear")


def save_point_cloud(path, cloud):
    """Write a cloud as CSV, whatever the path's extension: a "# dim=D"
    line, then one row of 17 significant digits per point."""
    line = ",".join(["%.17g"] * cloud.dim) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# dim={cloud.dim}\n")
        fh.writelines(line % tuple(row) for row in cloud.points.tolist())


def _load_csv_rows(path):
    rows = []
    declared = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                body = text[1:].strip()
                if body.startswith("dim="):
                    try:
                        declared = int(body[4:])
                    except ValueError:
                        raise ConfigError(f"{path}: bad header at line "
                                          f"{lineno}: {text!r}") from None
                continue
            try:
                rows.append([float(tok) for tok in text.split(",")])
            except ValueError as exc:
                raise ConfigError(f"{path}: parse error at line {lineno}: {exc}")
    return declared, rows


def load_point_cloud(path):
    """Load a cloud from CSV, whatever the path's extension, as
    `save_point_cloud` writes it: optional "#" lines (a "# dim=D" line must
    match the row width), then rows of comma-separated numbers.

    Exact duplicate rows are removed (first occurrence kept) with a logged
    warning count. A file that is not ASCII text, or not such rows, raises
    `ConfigError` naming the path.
    """
    try:
        declared, rows = _load_csv_rows(path)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not ASCII text: {exc}") from None
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"{path}: inconsistent row widths {sorted(widths)}")
    file_dim = widths.pop()
    if declared is not None and declared != file_dim:
        raise ConfigError(
            f"{path}: header dim={declared} but rows have {file_dim} columns")
    pts = np.array(rows, dtype=np.float64)
    uniq, first = np.unique(pts, axis=0, return_index=True)
    if uniq.shape[0] != pts.shape[0]:
        dropped = pts.shape[0] - uniq.shape[0]
        log.warning("%s: removed %d exact duplicate point(s)", path, dropped)
        pts = pts[np.sort(first)]
    return PointCloud(dim=pts.shape[1], points=pts, provenance="external")
