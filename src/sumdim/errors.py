"""Exceptions shared across the package."""


class SumdimError(Exception):
    """Base class for all package errors."""


class ScaleError(SumdimError):
    """A requested dyadic scale is out of range for the object at hand."""


class ConstructionError(SumdimError):
    """A block, schedule or interleaving request violates its preconditions."""


class AdmissibilityError(SumdimError):
    """Dimension targets violate a well-definedness inequality.

    The offending constraint is kept in ``constraint`` as a short
    machine-checkable string such as ``"s_k <= l_k + m_k"``.
    """

    def __init__(self, constraint, detail=""):
        self.constraint = constraint
        super().__init__(constraint if not detail else f"{constraint} ({detail})")


class BudgetExceededError(SumdimError):
    """An enumeration or automaton-state budget would be exceeded."""


class ConfigError(SumdimError):
    """A run configuration does not conform to the schema."""
