"""Exception types shared across the package."""


class CwsegError(Exception):
    """Base class for all cwseg errors."""


class ShapeError(CwsegError):
    """Tensor or parameter shapes violate an operation's contract."""


class ContractError(CwsegError):
    """An operation was invoked in a way its contract forbids."""


class FileFormatError(CwsegError):
    """A file does not conform to one of the package's on-disk formats."""


class NumericError(CwsegError, ValueError):
    """An argument's value is outside what an operation is defined on (a
    label, count, class or factor out of range, no pixels, one of two
    arguments that go together), or an operation produced non-finite
    values."""
