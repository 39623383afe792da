"""Meshing of 2-tori sampled as point clouds in 3 to 6 dimensions.

Pipeline: sample a quasi-periodic orbit or synthetic torus, build a
k-nearest-neighbor graph, extract a cycle basis (its triangles and
chordless squares plus the two homology generators), classify the
generators, solve for harmonic one-forms, integrate them to an angle map
on the flat torus, take its periodic Delaunay triangulation as a closed
oriented mesh, and project/export the result for rendering.
`orient_mesh` winds any other mesh (a loaded mesh.json, say)
consistently, or proves it non-orientable, from the orientation double
cover of its faces.
"""

from .errors import (ConfigError, CycleBasisError, DisconnectedGraphError,
                     GeneratorClassificationError, MeshValidationError,
                     OrientationConflictError, ProjectionError,
                     ResidualError, SingularityError, TorusforgeError)
from .cr3bp import (LibrationPoint, eom, integrate, jacobi_constant,
                    libration_points)
from .samplers import (PointCloud, StandardMapConfig, iterate_standard_map,
                       load_point_cloud, sample_center_manifold_torus,
                       sample_standard_map_torus, sample_torus_revolution,
                       save_point_cloud)
from .knn import NeighborGraph, build_knn_graph
from .cycles import (Classification, Cycle, CycleBasis, classify_cycles,
                     exhaustive_minimum_cycle_basis, homology_split,
                     minimum_cycle_basis)
from .oneforms import OneFormPair, assemble_system, solve_oneforms
from .mesher import (SurfaceMesh, load_mesh_json, mesh_flat_torus,
                     validate_mesh)
from .orientation import orient_mesh
from .projection import (ProjectedMesh, Projection, export_mesh, project,
                         read_obj, read_ply)
from .cli import default_config, main, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "CycleBasisError", "DisconnectedGraphError",
    "GeneratorClassificationError", "MeshValidationError",
    "OrientationConflictError", "ProjectionError",
    "ResidualError", "SingularityError", "TorusforgeError",
    "LibrationPoint", "eom", "integrate", "jacobi_constant",
    "libration_points",
    "PointCloud", "StandardMapConfig", "iterate_standard_map",
    "load_point_cloud", "sample_center_manifold_torus",
    "sample_standard_map_torus", "sample_torus_revolution",
    "save_point_cloud",
    "NeighborGraph", "build_knn_graph",
    "Classification", "Cycle", "CycleBasis", "classify_cycles",
    "exhaustive_minimum_cycle_basis", "homology_split",
    "minimum_cycle_basis",
    "OneFormPair", "assemble_system", "solve_oneforms",
    "SurfaceMesh", "load_mesh_json", "mesh_flat_torus", "validate_mesh",
    "orient_mesh",
    "ProjectedMesh", "Projection", "export_mesh", "project", "read_obj",
    "read_ply",
    "default_config", "main", "run_pipeline",
]
