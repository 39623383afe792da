"""Exception hierarchy shared across the pipeline stages."""


class TorusforgeError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(TorusforgeError):
    """Invalid configuration or command-line input."""


class SingularityError(TorusforgeError):
    """State evaluated at (or numerically on top of) a primary body."""


class DisconnectedGraphError(TorusforgeError):
    """Neighbor graph is disconnected; carries the component sizes."""

    def __init__(self, component_sizes):
        self.component_sizes = sorted(component_sizes, reverse=True)
        sizes = ", ".join(str(s) for s in self.component_sizes)
        super().__init__(
            f"disconnected graph: {len(self.component_sizes)} components "
            f"of sizes [{sizes}]; retry with a larger k or a denser cloud"
        )


class CycleBasisError(TorusforgeError):
    """Minimum-cycle-basis construction violated an internal invariant."""


class GeneratorClassificationError(TorusforgeError):
    """No two basis cycles stand out as homology generators."""

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics
        super().__init__(message)


class ResidualError(TorusforgeError):
    """One-form residuals exceeded their gates; carries the diagnostics."""

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics
        super().__init__(message)


class MeshValidationError(TorusforgeError):
    """Mesh failed closed-manifold validation; carries the report."""

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class OrientationConflictError(TorusforgeError):
    """Orientation propagation hit contradictory parity (non-orientable)."""

    def __init__(self, message, conflict_cycle=None):
        self.conflict_cycle = conflict_cycle
        super().__init__(message)


class ProjectionError(TorusforgeError):
    """Invalid projection specification for the mesh dimension."""
