"""Shared exception types, the record helper, and the bound on the mean of every Poisson draw."""

from __future__ import annotations

from functools import partial
from operator import attrgetter

import numpy as np


def record(cls=None, *, frozen: bool = True, eq: bool = True, check=None):
    """Make ``cls`` a record of its annotated fields, with methods that are closures over them, not generated source.

    A class body value is a field's default; a ``functools.partial`` one is
    called per instance.  ``__init__`` sets the fields, then runs
    ``check(self)`` and ``__post_init__``.  With ``eq`` the fields decide
    equality and a frozen record's hash; a frozen record refuses assignment.
    ``cls.fields``, ``cls.defaults`` and ``replace(**changes)`` complete it.
    """
    if cls is None:
        return partial(record, frozen=frozen, eq=eq, check=check)
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    n, template, required = len(names), {name: defaults.get(name) for name in names}, set(names) - defaults.keys()
    factories = [name for name, value in defaults.items() if type(value) is partial]
    hooks = [hook for hook in (check, getattr(cls, "__post_init__", None)) if hook]
    values = attrgetter(*names) if n > 1 else lambda obj: tuple(getattr(obj, name) for name in names)
    store = object.__setattr__ if frozen else setattr  # past a frozen record's refusal, as dataclasses do

    def __init__(self, *args, **kw):
        pairs = zip(names, args)
        if kw or len(args) != n:  # not every field by position: the rest by keyword, else by default
            given = len(args) + len(kw)
            kw.update(pairs)  # kw is this call's own dict
            fields = template | kw  # in field order, then any unknown name
            if len(kw) != given or len(fields) != n or not required.issubset(kw):  # a field twice, unknown or missing
                raise TypeError(f"{cls.__name__}() takes {names} once or by default, got {given} for {sorted(kw)}")
            for name in factories:
                if name not in kw:
                    fields[name] = fields[name]()
            pairs = fields.items()
        for name, value in pairs:
            store(self, name, value)
        for hook in hooks:
            hook(self)

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})"

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def refuse(self, name, value=None):
        raise AttributeError(f"{cls.__name__} is frozen: cannot set or delete the field {name!r}")

    cls.__init__, cls.__repr__, cls.fields, cls.defaults = __init__, __repr__, names, defaults
    cls.replace = lambda self, **changes: cls(**dict(zip(names, values(self))) | changes)
    if eq:
        cls.__eq__, cls.__hash__ = __eq__, (lambda self: hash(values(self))) if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = refuse
    return cls


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


@record(frozen=False, eq=False)
class Diagnostic:
    """One parser/compiler message with a source position (line 0: none)."""

    message: str
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        if self.line:
            return f"line {self.line}, col {self.col}: {self.message}"
        return self.message


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
