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


class TaintViolation(SecurePimError):
    """A plaintext-tagged private buffer crossed the channel in a secure scheme."""


class VerificationError(SecurePimError):
    """A MAC check failed; carries its step and the session it aborted."""

    def __init__(self, step, ftag_e, ftag_r, session=None):
        super().__init__(f"verification failed at {step!r}: {ftag_e} != {ftag_r}")
        self.step = step
        self.ftag_e = ftag_e
        self.ftag_r = ftag_r
        self.session = session


class GcEvaluationFault(SecurePimError):
    """A garbled-table row failed its integrity check during evaluation."""

    def __init__(self, message, session=None):
        super().__init__(message)
        self.session = session


class ConfigError(SecurePimError):
    """Invalid scenario or scheme configuration."""
