"""Exception taxonomy shared across the package."""


class RoyBoundsError(Exception):
    """Base class for all package errors."""


class DomainError(RoyBoundsError):
    """Inputs outside the mathematical domain of an operation."""


class InvalidDgpError(RoyBoundsError):
    """A synthetic DGP violates the cost-shape restrictions."""


class NoSupportError(RoyBoundsError):
    """Kernel window around a z evaluation point contains no observations."""

    def __init__(self, z0: float, bandwidth: float):
        self.z0 = z0
        self.bandwidth = bandwidth
        super().__init__(f"no observations within bandwidth {bandwidth!r} of z0={z0!r}")


class ConfigError(RoyBoundsError):
    """Invalid run configuration."""
