"""attikit: unit-quaternion attitude representations, kinematics, and demos."""

from .algebra import (
    IDENTITY,
    canonicalize,
    conjugate,
    inverse,
    norm,
    normalized,
    product_matrix_left,
    product_matrix_right,
    pure,
    quat_mul,
)
from .checks import require_unit
from .conversions import (
    AxisAngle,
    EulerAnglesXYZ,
    euler_xyz_to_matrix,
    euler_xyz_to_quat,
    from_axis_angle,
    from_rotation_matrix,
    hamilton_to_jpl,
    jpl_quat_mul,
    jpl_rotate_global_to_local,
    jpl_to_hamilton,
    quat_to_euler_xyz,
    rodrigues_rotate,
    rotate_vector,
    rotate_vector_inverse,
    to_axis_angle,
    to_rotation_matrix,
)
from .error_dynamics import (
    body_rate_to_desired_frame,
    desired_rate_to_body_frame,
    error_matrix,
    error_quaternion,
    error_quaternion_rate,
)
from .errors import (
    AttitudeError,
    GimbalLockError,
    InconsistentRateError,
    InconsistentTrajectoryError,
    InvalidAxisError,
    InvalidConfigError,
    InvalidRotationError,
    NonFiniteInputError,
    NonUnitQuaternionError,
    SingularQuaternionError,
)
from .kinematics import (
    EGMatrices,
    body_accel_from_q,
    body_rates_from_euler_321,
    body_rates_from_qdot,
    eg_matrices,
    euler_321_rate_matrix,
    euler_rate_conditioning,
    euler_rates_from_body_321,
    qdot_from_body_rates,
    qdot_from_world_rates,
    rotation_matrix_rate,
    world_rates_from_qdot,
)
from .simulation import (
    AttitudeState,
    EulerState,
    EulerTrajectory,
    PlanarState,
    RateProfile,
    UnwindingSummary,
    critically_damped_reference,
    pitch_sweep_dt,
    pitch_sweep_profile,
    propagate_euler_321,
    propagate_quaternion,
    simulate_unwinding,
)

__version__ = "0.1.0"
