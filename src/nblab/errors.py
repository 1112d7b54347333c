"""Exception types shared across the package."""


class NBLabError(Exception):
    """Base class for package-specific errors."""


class DomainError(NBLabError, ValueError):
    """Input lies outside the documented domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or within guard distance of) a pole."""


class UnstablePointError(DomainError):
    """Evaluation refused near a point where the algorithm loses accuracy."""


class CacheError(NBLabError, IOError):
    """A Gram cache file cannot be read or written, or its data is bad:
    magic, version, length or checksum."""


class ConditioningError(NBLabError, ArithmeticError):
    """Gram system too ill-conditioned even after the ridge ladder."""
