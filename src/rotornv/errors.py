"""Shared exception types, and the bound on the mean of every Poisson draw."""

import numpy as np

# Largest expected count one Poisson draw is given; numpy refuses means
# above ~9.2e18 ("lam value too large").
MAX_EXPECTED_COUNTS = 1e18


class ValidationError(ValueError):
    """A configuration value or argument violates a documented invariant."""


def check_expected_counts(lam, keys: str) -> None:
    """Refuse expected counts that are NaN, infinite or above MAX_EXPECTED_COUNTS.

    ``keys`` names the configuration values that scale the counts, so the
    refusal (exit 2) says what to lower.
    """
    peak = float(np.max(lam))
    if not peak <= MAX_EXPECTED_COUNTS:
        raise ValidationError(
            f"expected counts per draw reach {peak:.3g}, more than {MAX_EXPECTED_COUNTS:.0e}; "
            f"lower {keys}"
        )


class Diagnostic:
    """One parser/compiler message with a source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if self.line:
            return f"line {self.line}, col {self.col}: {self.message}"
        return self.message

    def __repr__(self) -> str:
        return f"Diagnostic({self.message!r}, line={self.line}, col={self.col})"


class SequenceError(ValidationError):
    """A pulse-sequence program failed to parse or compile.

    Carries the full list of diagnostics; no partial program is ever
    returned alongside it.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class ParseError(SequenceError):
    pass


class CompileError(SequenceError):
    pass


class FitError(RuntimeError):
    """A least-squares fit could not be carried out."""


class IdentifiabilityError(FitError):
    """The data do not constrain one or more fit parameters."""
