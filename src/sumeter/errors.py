"""Exception hierarchy shared by all sumeter modules."""


class AccountingError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(AccountingError):
    """An input value violates an invariant (negative walltime, bad spec, ...)."""


class CapacityError(AccountingError):
    """A request exceeds what the node type physically provides."""


class ModelError(AccountingError):
    """A charge model cannot be applied to the given hardware."""


class ConfigError(AccountingError):
    """A configuration, data or output file cannot be read, parsed or written."""
