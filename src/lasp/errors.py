"""The three lasp errors, one per CLI exit code."""


class ConfigError(ValueError):
    """Invalid configuration value, combination or template (exit 2)."""


class DataError(ValueError):
    """Bad dataset, file or caller-supplied value: a manifest, an image,
    a checkpoint, a label outside its class set (exit 3)."""


class DivergenceError(RuntimeError):
    """Training loss or parameter update became non-finite or exploded
    (exit 4)."""

    def __init__(self, step: int, value: float | None,
                 quantity: str = "total loss", terms: str = ""):
        shown = quantity if value is None else f"{quantity} {value}"
        note = f" ({terms})" if terms else ""
        super().__init__(f"divergence at step {step}: {shown}{note}")
        self.step = step
        self.value = value
