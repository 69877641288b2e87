"""Exception hierarchy shared by all camkit modules.

Every domain failure raises a subclass of :class:`CamkitError`, so callers
(notably the CLI) can distinguish processing errors from genuine bugs.
"""


class CamkitError(Exception):
    """Base class for all camkit domain errors."""


# --- geometry ---------------------------------------------------------------

class NonPositiveDepth(CamkitError):
    """A point lies at or behind the camera plane, so it cannot be projected."""


class NoConvergence(CamkitError):
    """Iterative undistortion failed to converge (out-of-domain input)."""


class InvalidRotation(CamkitError):
    """A matrix supposed to be a rotation is not orthonormal with det +1."""


# --- checkerboard target ----------------------------------------------------

class BoardBehindCamera(CamkitError):
    """The whole board lies behind the camera; nothing can be rendered."""


class BoardOutOfView(CamkitError):
    """No sampled pose keeps the whole board inside the image."""


class BoardNotFound(CamkitError):
    """Too few corner candidates to assemble any checkerboard grid."""


class AmbiguousGrid(CamkitError):
    """Corner candidates do not form a single unambiguous grid ordering."""


class CountMismatch(CamkitError):
    """A complete grid was found with the wrong dimensions for this board."""


# --- least squares ----------------------------------------------------------

class NonFiniteResidual(CamkitError):
    """The residual evaluator returned NaN or infinity."""


class SingularNormalEquations(CamkitError):
    """Damped normal equations remain unsolvable even at maximum damping."""


# --- calibration ------------------------------------------------------------

class DegenerateConfiguration(CamkitError):
    """Point correspondences are degenerate (e.g. collinear) for estimation."""


class DegenerateMotion(CamkitError):
    """Board orientations are too similar to constrain the intrinsics."""


class SingularIntrinsics(CamkitError):
    """The intrinsic matrix is not invertible."""


class InsufficientViews(CamkitError):
    """Fewer calibration views than the pipeline requires."""


class ShapeMismatch(CamkitError):
    """Result and dataset shapes disagree."""


# --- pose -------------------------------------------------------------------

class BehindCamera(CamkitError):
    """An estimated pose places the target behind the camera."""


# --- structure from motion --------------------------------------------------

class ImageTooSmall(CamkitError):
    """Image is below the minimum size for feature detection."""


class InsufficientMatches(CamkitError):
    """Not enough correspondences for two-view geometry."""


class NoModelFound(CamkitError):
    """RANSAC found no model with enough inliers."""


class CheiralityAmbiguous(CamkitError):
    """No relative-pose candidate places a clear majority of points in front."""


class ZeroBaseline(CamkitError):
    """Two views share (numerically) the same camera center."""


class InitializationFailed(CamkitError):
    """No image pair had enough inliers and baseline to start reconstruction."""


class RegistrationFailed(CamkitError):
    """A view could not be registered against the current reconstruction."""

    def __init__(self, view_id, message=""):
        self.view_id = view_id
        super().__init__(message or f"view {view_id} could not be registered")


class EmptyScene(CamkitError):
    """The scene contains no valid triangulated points."""


# --- file I/O ---------------------------------------------------------------

class UnsupportedFormat(CamkitError):
    """File is not one of the supported formats."""


class CorruptHeader(CamkitError):
    """File header could not be parsed."""


class TruncatedData(CamkitError):
    """File ended before all declared data was read."""


class SchemaMismatch(CamkitError):
    """A JSON document is missing required fields or has wrong types or
    out-of-range values."""


class CorruptFile(CamkitError):
    """File contents could not be decoded at all."""


class IoFailure(CamkitError):
    """Underlying OS-level read/write failure."""
