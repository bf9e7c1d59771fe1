"""Exception types shared across the package."""


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
