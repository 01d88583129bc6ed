"""Exception types shared across the package, and the physical-memory
rule behind FieldTooLarge."""

import os


class YpqError(Exception):
    """Base class for all errors raised by this package."""


class InvalidLabel(YpqError):
    """Label pair (p, q) violates p >= 2, p < q < 2p, gcd(p, q) = 1."""


class OutOfRange(YpqError):
    """A point outside the chart or interval, or an input, constant or
    result that is not finite or overflows a double."""


class DegreeOrderError(YpqError):
    """Associated Legendre order exceeds the degree."""


class EigenFailure(YpqError):
    """An eigensolver failed: no convergence, or an indefinite mass matrix."""


class QuadratureUnderflow(YpqError):
    """The zeroth moment mu0 of a Gauss-Jacobi weight overflows a double."""


class NotConverged(YpqError):
    """Eigenvalues still moving under basis refinement, or a shooting
    series that cannot step."""


class BracketError(YpqError):
    """Shooting bracket carries no sign change of the matching determinant."""


class IndexChainError(YpqError):
    """Spherical-harmonic index chain s1 >= s2 >= |s3| violated."""


class GridMismatch(YpqError):
    """Sampled data does not match the quadrature grid descriptor."""


class FieldTooLarge(YpqError):
    """A field or table would not fit in the machine's physical memory."""


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def require_memory(need: int, what: str) -> None:
    """FieldTooLarge when `need` bytes exceed physical memory."""
    have = _physical_memory()
    if need > have:
        raise FieldTooLarge(f"{what} needs {need} bytes, more than the "
                            f"{have} bytes of physical memory")


class SourceCoverage(YpqError):
    """Source samples do not cover the requested time window."""


class UnusablePath(YpqError):
    """A configured directory or file cannot be created, read or written."""


class ConfigError(YpqError):
    """Run configuration file is malformed; message carries the line number."""
