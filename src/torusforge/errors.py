"""Exception hierarchy shared across the pipeline stages.

Every error takes its message and, by keyword, the structured evidence
of its failure: a validation `report`, residual or classification
`diagnostics`, a graph's `component_sizes`, an orientation's
`conflict_cycle`. The evidence that is not None is kept in one dict,
`exc.details`, which the CLI prints as the `details` of its one-line
failure JSON.
"""


class TorusforgeError(Exception):
    """Base class for all pipeline errors."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = {k: v for k, v in details.items() if v is not None}


class ConfigError(TorusforgeError):
    """Invalid configuration or command-line input."""


class DisconnectedGraphError(TorusforgeError):
    """Neighbor graph is disconnected; carries the component sizes."""


class CycleBasisError(TorusforgeError):
    """Minimum-cycle-basis construction violated an internal invariant."""


class GeneratorClassificationError(TorusforgeError):
    """No two basis cycles stand out as homology generators."""


class ResidualError(TorusforgeError):
    """One-form residuals exceeded their gates; carries the diagnostics."""


class MeshValidationError(TorusforgeError):
    """Mesh failed closed-manifold validation; carries the report."""


class OrientationConflictError(TorusforgeError):
    """Orientation propagation hit contradictory parity (non-orientable)."""


class ProjectionError(TorusforgeError):
    """Invalid projection specification for the mesh dimension."""
