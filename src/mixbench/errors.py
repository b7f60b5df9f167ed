"""Exception types raised by the simulator and the measurement routines."""


class MixbenchError(Exception):
    """Base class for all mixbench errors."""


class ValidationError(MixbenchError):
    """A scenario, grid or configuration violates an invariant."""


class CoherenceError(ValidationError):
    """A frequency does not fall on an exact bin of the sampling grid."""

    def __init__(self, frequency, resolution, context=""):
        self.frequency = frequency
        self.resolution = resolution
        msg = (f"frequency {frequency!r} is not an integer multiple of the "
               f"grid resolution {resolution!r}")
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class AliasingError(ValidationError):
    """A frequency lies at or above the Nyquist limit of the grid."""

    def __init__(self, frequency, nyquist, context=""):
        self.frequency = frequency
        self.nyquist = nyquist
        msg = f"frequency {frequency!r} is not below the Nyquist limit {nyquist!r}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class InsufficientBandwidthError(MixbenchError):
    """A noise band contains too few usable bins after tone masking."""


class NoCompressionError(MixbenchError):
    """The device has no compressive cubic term, so no 1 dB point exists."""


class UndefinedInterceptError(MixbenchError):
    """The device has no cubic term, so the third-order intercept is undefined."""


class WrongStimulusError(MixbenchError):
    """A measurement was handed a scenario with the wrong stimulus layout."""


class CompressionNotFoundError(MixbenchError):
    """The gain sweep never crossed the 1 dB compression threshold.

    Carries the sweep taken, as columns, so the caller can widen the range.
    """

    def __init__(self, message, columns=((), (), ())):
        super().__init__(message)
        self.columns = columns


class ImmeasurableIM3Error(MixbenchError):
    """The third-order product is below the numerical floor (linear device)."""


class NonFiniteReadingError(MixbenchError):
    """A measurement's reading, or a quantity it is read from, is not a finite number.

    A drive its drive polynomial cannot bound is refused with it too;
    ``power_dbm`` is then the drive's power where its reader gave one.
    """

    def __init__(self, message, power_dbm=None):
        super().__init__(message)
        self.power_dbm = power_dbm


class StimulusTooHotError(MixbenchError):
    """The two-tone drive compresses the device too much for a clean intercept."""
