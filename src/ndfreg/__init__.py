"""Temporally parameterized neural displacement fields for longitudinal
volume registration: fitting, dense field prediction, Jacobian-determinant
morphometry, and the monotonicity diagnostics.

Importing the package loads none of its modules; import each from its own
module (`ndfreg.trainer`, `ndfreg.network`, ...), so that a command loads
only the modules it runs."""

__version__ = "0.1.0"
