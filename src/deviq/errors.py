"""Exception hierarchy shared across the package."""


class DeviqError(Exception):
    """Base class for all errors raised by this package."""


class SpecError(DeviqError):
    """Invalid bundle declaration (bad names, collisions, bad order)."""


class UnknownSymbolError(DeviqError):
    def __init__(self, name):
        super().__init__(f"unknown symbol '{name}'")
        self.name = name


class OrderOverflowError(DeviqError):
    """A total derivative would exceed the jet order tracked by the spec."""

    def __init__(self, coordinate, order):
        super().__init__(
            f"total derivative of '{coordinate}' exceeds the tracked jet order {order}"
        )
        self.coordinate = coordinate
        self.order = order


class VerticalExtensionError(DeviqError):
    """Vertical derivative / extension applied to an already-vertical object."""


class ExpansionLimitError(DeviqError):
    """An exact result would pass a fixed size limit: a constant longer than
    `expr.MAX_CONSTANT_DIGITS` digits, a power of a sum predicted to
    expand to more than `expr.MAX_EXPANSION_TERMS` terms, or a normal form
    of more than `expr.MAX_NORMAL_FORM_TERMS` terms."""


class EvalError(DeviqError):
    """Numeric evaluation failed."""


class UnboundSymbolError(EvalError):
    def __init__(self, name):
        super().__init__(f"symbol '{name}' is not bound to a value")
        self.name = name


class DomainError(EvalError):
    """Evaluation hit a domain problem (log of non-positive, division by zero...).

    Carries the offending subexpression so callers can report it.
    """

    def __init__(self, subexpression, reason):
        super().__init__(f"{reason} in subexpression '{subexpression}'")
        self.subexpression = subexpression
        self.reason = reason


class ParseError(DeviqError):
    """Model-file syntax or resolution error, with source position."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class CompileError(DeviqError):
    """An equation system cannot be reduced to explicit first-order form."""


class SingularEquationError(CompileError):
    """The leading coefficient of an equation vanishes identically."""


class IntegrationError(DeviqError):
    """Numeric integration aborted; `last_time` is the last valid grid time."""

    def __init__(self, message, last_time=None):
        if last_time is not None:
            message = f"{message} (last valid time t={last_time!r})"
        super().__init__(message)
        self.last_time = last_time
