"""Meshing of 2-tori sampled as point clouds in any dimension D >= 3.

Pipeline: sample a quasi-periodic orbit or synthetic torus, build a
k-nearest-neighbor graph, extract a cycle basis (its triangles and
chordless squares plus the two homology generators), classify it (its
last two rows become the generators, each run one fixed way), solve for
harmonic one-forms and the angle map on the flat torus they integrate
to (`parameterize` does these three, taking the generators from the
period lattice where its classes are clear of a near-tie), take its
periodic Delaunay triangulation as a closed oriented mesh, and export
it projected to 3D by a (3, D) matrix.
`orient_mesh` winds any other mesh (a loaded mesh.json, say)
consistently, or proves it non-orientable, from the orientation double
cover of its faces. Each name loads its module on first access, so
importing the package loads no scipy.

The names below are the chain's steps, its data types and its errors.
What only tests need (the three-body equations of motion, their
Jacobian, integrator and Jacobi integral, readers of the OBJ and PLY
exports, de Pina's split on its own, the one-form solve on a hand-built
basis) lives beside the tests; the center-manifold sampler's flow is in
closed form and needs none of the dynamics.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "errors": ("ConfigError", "CycleBasisError", "DisconnectedGraphError",
               "GeneratorClassificationError", "MeshValidationError",
               "OrientationConflictError", "ProjectionError",
               "ResidualError", "TorusforgeError"),
    "cr3bp": ("LibrationPoint", "libration_points"),
    "samplers": ("PointCloud", "iterate_standard_map", "load_point_cloud",
                 "sample_center_manifold_torus", "sample_standard_map_torus",
                 "sample_torus_revolution", "save_point_cloud"),
    "knn": ("NeighborGraph", "build_knn_graph"),
    "cycles": ("CycleBasis", "classify_cycles"),
    "oneforms": ("OneFormPair", "parameterize"),
    "mesher": ("SurfaceMesh", "load_mesh_json", "mesh_flat_torus",
               "validate_mesh"),
    "orientation": ("orient_mesh",),
    "projection": ("ProjectedMesh", "export_mesh", "project"),
    "cli": ("default_config", "main", "run_pipeline"),
}
_HOME = {name: module for module, names in _MODULES.items()
         for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
