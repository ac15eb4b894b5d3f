"""Exception types shared across the package."""


class SecurePimError(Exception):
    """Base class for all package errors."""


class UnknownKeyError(SecurePimError):
    """A keystream was requested for an unregistered key id."""


class VersionReuseError(SecurePimError):
    """An OTP context was consumed twice for masking."""


class DimensionError(SecurePimError, ValueError):
    """Operand shapes are inconsistent."""


class CapacityError(SecurePimError):
    """Resident data would exceed per-DPU memory."""


class VerificationError(SecurePimError):
    """A MAC check failed; carries its step and, once ``run_workload``
    re-raises it, the session it aborted."""

    session = None

    def __init__(self, step, ftag_e, ftag_r):
        super().__init__(f"verification failed at {step!r}: {ftag_e} != {ftag_r}")
        self.step = step
        self.ftag_e = ftag_e
        self.ftag_r = ftag_r


class GcEvaluationFault(SecurePimError):
    """A garbled-table row failed its integrity check during evaluation;
    ``session`` as for ``VerificationError``."""

    session = None


class ConfigError(SecurePimError, ValueError):
    """Invalid scenario or scheme configuration."""
