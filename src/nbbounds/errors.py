"""The exception type shared across the package, and the precondition
checks that raise it for a positive or nonnegative finite real and for a
count."""

import math
import operator


class DomainError(ValueError):
    """An input violated a documented precondition.

    ``code`` is a stable machine-readable slug, listed with what raises it
    in ``docs/output_schema.md``; ``message`` names the violated
    precondition in words. The CLI maps this exception to exit status 1.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def _require_positive(name: str, value: float) -> None:
    """Raise ``invalid-parameter``, naming ``name`` and ``value``, unless
    ``value`` is a positive finite real (NaN and inf are not)."""
    if not (value > 0 and math.isfinite(value)):
        raise DomainError("invalid-parameter", f"{name} must be a positive real, got {value}")


def _require_nonnegative(name: str, value: float) -> None:
    """As :func:`_require_positive`, with zero allowed."""
    if not (value >= 0 and math.isfinite(value)):
        raise DomainError("invalid-parameter", f"{name} must be a nonnegative real, got {value}")


def _require_count(name: str, value) -> int:
    """``value`` as an int >= 1, else ``invalid-parameter`` naming ``name``
    and ``value``. Any integer type passes (``operator.index``); a float,
    even a whole one, does not."""
    try:
        count = operator.index(value)
    except TypeError:
        raise DomainError(
            "invalid-parameter", f"{name} must be a whole number, got {value!r}"
        ) from None
    if count < 1:
        raise DomainError("invalid-parameter", f"{name} must be >= 1, got {count}")
    return count
