"""Exception hierarchy for attitude math errors."""


class AttitudeError(ValueError):
    """Base class for all attikit math errors."""


class NonFiniteInputError(AttitudeError):
    """An input contains NaN or infinite components."""


class NonUnitQuaternionError(AttitudeError):
    """A quaternion expected to have unit norm is outside tolerance."""


class SingularQuaternionError(AttitudeError):
    """Quaternion norm is too close to zero to invert or normalize."""


class InvalidAxisError(AttitudeError):
    """A rotation axis is not a unit vector within tolerance."""


class InvalidRotationError(AttitudeError):
    """A 3x3 matrix is not orthonormal with determinant +1."""


class GimbalLockError(AttitudeError):
    """Euler-rate inversion requested at (or too near) the pitch singularity.

    Carries ``cos_theta``, the determinant of the body-rate matrix at the
    offending pitch angle.
    """

    def __init__(self, cos_theta: float):
        super().__init__(
            f"Euler-rate matrix is singular: cos(theta) = {cos_theta:.3e}"
        )
        self.cos_theta = cos_theta


class InconsistentRateError(AttitudeError):
    """A quaternion rate is not orthogonal to its quaternion."""


class InconsistentTrajectoryError(AttitudeError):
    """Quaternion derivatives violate the unit-norm trajectory identity."""


class InvalidConfigError(AttitudeError):
    """A parameter or input file is malformed or out of its valid range."""
