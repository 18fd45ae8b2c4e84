class ResourceLimitError(RuntimeError):
    """Raised when the Buchberger pair queue or the smooth_check minor search
    exceeds its cap."""


class ShapeViolation(ValueError):
    """A substitution left the parabolic coordinate span."""


class NormalFormFailure(RuntimeError):
    """Chain normal form failed: the point is outside the chart locus."""
