"""Meshing of 2-tori sampled as point clouds in 3 to 6 dimensions.

Pipeline: sample a quasi-periodic orbit or synthetic torus, build a
k-nearest-neighbor graph, extract a cycle basis (its triangles and
chordless squares plus the two homology generators), classify the
generators, solve for harmonic one-forms and the angle map on the flat
torus they integrate to, take its periodic Delaunay triangulation as a
closed oriented mesh, and project/export the result for rendering.
`orient_mesh` winds any other mesh (a loaded mesh.json, say)
consistently, or proves it non-orientable, from the orientation double
cover of its faces. Each name loads its module on first access, so
importing the package loads no scipy.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "errors": ("ConfigError", "CycleBasisError", "DisconnectedGraphError",
               "GeneratorClassificationError", "MeshValidationError",
               "OrientationConflictError", "ProjectionError",
               "ResidualError", "SingularityError", "TorusforgeError"),
    "cr3bp": ("LibrationPoint", "eom", "integrate", "jacobi_constant",
              "libration_points"),
    "samplers": ("PointCloud", "iterate_standard_map", "load_point_cloud",
                 "sample_center_manifold_torus", "sample_standard_map_torus",
                 "sample_torus_revolution", "save_point_cloud"),
    "knn": ("NeighborGraph", "build_knn_graph"),
    "cycles": ("Classification", "Cycle", "CycleBasis", "classify_cycles",
               "homology_split"),
    "oneforms": ("OneFormPair", "solve_oneforms"),
    "mesher": ("SurfaceMesh", "load_mesh_json", "mesh_flat_torus",
               "validate_mesh"),
    "orientation": ("orient_mesh",),
    "projection": ("ProjectedMesh", "Projection", "export_mesh", "project",
                   "read_obj", "read_ply"),
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
