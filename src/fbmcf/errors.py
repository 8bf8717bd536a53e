"""Exception hierarchy shared across the package.

Every numerical failure mode raised by the library derives from
:class:`FbmcfError`, so callers (and the CLI) can map any of them onto a
single "numerical failure" exit path.
"""


class FbmcfError(Exception):
    """Base class for all library errors."""


class ConfigError(FbmcfError):
    """A scenario configuration is malformed or violates an admissibility bound."""


# -- barrier geometry ---------------------------------------------------------

class BeyondReach(FbmcfError):
    """Query point lies outside the tube where nearest-point projection is single valued."""


class ChartFailure(FbmcfError):
    """A local graph chart over the tangent line could not be fit at the requested radius."""


# -- kernels ------------------------------------------------------------------

class NonNegativeTime(FbmcfError):
    """Backward heat kernels require t < 0 (tau = -t > 0)."""


class CalibrationFailure(FbmcfError):
    """No cutoff constant alpha on the search grid makes the heat-operator inequality hold."""


# -- varifolds ----------------------------------------------------------------

class IllConditionedFit(FbmcfError):
    """The tangential test family is too degenerate to fit a curvature field."""


# -- flow ---------------------------------------------------------------------

class StepTooLarge(FbmcfError):
    """An implicit step met a system that is not definite, a remesh would
    change the length by more than 1e-3, or the crossing test met a
    non-finite coordinate or segment length."""


class InadmissibleTestFunction(FbmcfError):
    """Test function gradient is not tangent to the barrier on the barrier."""


class GraphFailure(FbmcfError):
    """Local graph fit over the initial tangent line failed."""


# -- density ------------------------------------------------------------------

class OutOfHistory(FbmcfError):
    """Requested slice time is not covered by the stored flow history."""


class InadmissibleRadius(FbmcfError):
    """Density radius violates r^2 <= min(tau0, t0 - t_start)."""


class KappaTooLarge(FbmcfError):
    """Cutoff radius exceeds the admissible bound r_S/c1."""


class NoFiniteA(FbmcfError):
    """No finite correction constant makes the monotone quantity nondecreasing."""


# -- elliptic regularization --------------------------------------------------

class ShootingFailure(FbmcfError):
    """The axis-regular translator branch blew up (dz/dr below -1e6) before
    reaching R0."""


class StiffnessFailure(FbmcfError):
    """The translator march needed a step below 10 ulps of r or more than
    its cap of attempted steps."""


class OutOfRange(FbmcfError):
    """Requested translate time exceeds the solved profile height."""
