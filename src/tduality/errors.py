"""Exception taxonomy shared across the engine.

The CLI maps these onto exit codes: parse errors exit 1, precondition
violations exit 2, internal invariant breaches exit 3.
"""


class TdualityError(Exception):
    """Base class for all engine errors."""


class ParseError(TdualityError):
    """Malformed model file: syntax, duplicate name, dangling reference."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class PreconditionError(TdualityError):
    """Caller violated an operation's stated precondition."""


class InternalCheckError(TdualityError):
    """A verified invariant failed; always a bug, never a usage error."""
