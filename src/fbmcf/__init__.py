"""Free-boundary curve-shortening laboratory.

Subpackages mirror the pipeline: ``barrier`` (geometry of the constraint
curve), ``kernels`` (truncated/reflected Gaussian kernels), ``varifold``
(discrete first variation), ``flow`` (front tracking with popping),
``density`` (Gaussian densities and regularity classification), ``tangent``
(parabolic rescaling), ``regularize`` (translator profiles), and ``cli``.
"""

from .barrier import Barrier, Circle, Line, ParametricBarrier
from .kernels import KernelParams
from .varifold import DiscreteVarifold
from .flow import CurveState, FlowHistory

__all__ = [
    "Barrier", "Circle", "Line", "ParametricBarrier",
    "KernelParams", "DiscreteVarifold", "CurveState", "FlowHistory",
]

__version__ = "0.1.0"
