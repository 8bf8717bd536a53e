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
    """Requested time step violates the explicit stability bound."""


class InadmissibleTestFunction(FbmcfError):
    """Test function gradient is not tangent to the barrier on the barrier."""


class WindowViolation(FbmcfError):
    """A ball required by a mass bound sticks out of the computational window."""


class GraphFailure(FbmcfError):
    """Local graph fit over the initial tangent line failed."""


# -- density ------------------------------------------------------------------

class OutOfHistory(FbmcfError):
    """Requested slice time is not covered by the stored flow history."""


class InadmissibleRadius(FbmcfError):
    """Density radius violates r^2 <= min(tau0, t0 - t_start)."""


class KappaTooLarge(FbmcfError):
    """Cutoff radius exceeds the admissible bound min(r_S/c1, d(x0, boundary of U))."""


class NoFiniteA(FbmcfError):
    """No finite correction constant makes the monotone quantity nondecreasing."""


# -- elliptic regularization --------------------------------------------------

class ShootingFailure(FbmcfError):
    """No bracket for the translator shooting parameter was found."""


class StiffnessFailure(FbmcfError):
    """Translator ODE became too stiff for the tolerance budget."""


class OutOfRange(FbmcfError):
    """Requested translate time exceeds the solved profile height."""
