"""Error taxonomy shared across modules."""


class InputError(ValueError):
    """Caller-supplied value violates an operation's precondition."""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class TemplateError(ValueError):
    """Malformed textual template (e.g. missing placeholder)."""


class DataError(ValueError):
    """Dataset loading or sampling failure."""


class ProtocolError(ValueError):
    """Evaluation protocol violated (label outside class set, name collision)."""


class DivergenceError(RuntimeError):
    """Training loss or parameter update became non-finite or exploded."""

    def __init__(self, step: int, value: float | None,
                 quantity: str = "total loss", terms: str = ""):
        shown = quantity if value is None else f"{quantity} {value}"
        note = f" ({terms})" if terms else ""
        super().__init__(f"divergence at step {step}: {shown}{note}")
        self.step = step
        self.value = value
