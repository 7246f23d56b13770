"""Exception taxonomy shared by all geometry modules."""


class OvalfrontError(Exception):
    """Base class for every error raised by this package."""


class NonConvexError(OvalfrontError):
    """Curvature radius is not strictly positive on the sample grid."""


class DegenerateSamplingError(OvalfrontError):
    """Sample grid too coarse to resolve the requested construction."""


class DegenerateProfileError(OvalfrontError):
    """Curvature profile is constant within tolerance (circle case).

    The mean level is attained everywhere, so crossing counts are
    meaningless; callers should report the degenerate outcome instead.
    """


class AllBelowToleranceError(OvalfrontError):
    """Every sample lies inside the hysteresis band around zero."""


class AtCuspError(OvalfrontError):
    """Front curvature requested inside the guard band of a cusp."""


class NotContainedError(OvalfrontError):
    """Inner curve is not strictly inside the outer loop."""


class BadParametrizationError(OvalfrontError):
    """Curve samples are not unit-speed (or not on the target surface)."""


class NotInHemisphereError(OvalfrontError):
    """No open hemisphere contains the spherical curve."""


class NotBisectingError(OvalfrontError):
    """Spherical curve does not bisect the total area within tolerance."""


class FrenetBreakdownError(OvalfrontError):
    """Space-curve curvature vanishes; the Frenet frame is undefined."""


class NotHorocyclicallyConvexError(OvalfrontError):
    """Hyperbolic curve has geodesic curvature <= 1 somewhere."""


class CothDomainError(OvalfrontError):
    """Mean curvature <= 1: the collapse time coth^-1(kbar) is undefined."""


class InvalidSpecError(OvalfrontError):
    """Curve construction parameters are inconsistent or out of range."""


class SpecFormatError(OvalfrontError):
    """Curve description file cannot be parsed or fails schema validation."""


class NumericalFailureError(OvalfrontError):
    """An internal computation on accepted input failed its own accuracy gate.

    Examples: a shooting that does not close, area oracles that disagree.
    The CLI reports it apart from invalid input.
    """
