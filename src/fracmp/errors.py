"""Exception taxonomy shared by all fracmp modules.

Configuration errors cover bad construction parameters and config files,
usage errors cover calls outside an operation's contract, hypothesis
errors cover structural assumptions on the nonlinearity/potential, and
solver errors carry the last iterate so a failed run stays inspectable.
"""


class FracmpError(Exception):
    """Base class for every error raised by this package.

    A sweep row that raises one becomes a failed record inside the row's
    worker process, so none crosses a process boundary.  Unpickling one
    would call __init__ with the message, which is not the first parameter
    of GateError or ExportError.
    """


class ConfigurationError(FracmpError):
    """Invalid construction parameters or config file contents."""


class UsageError(FracmpError):
    """Operation invoked with arguments outside its documented contract."""


class PreconditionError(UsageError):
    """A documented precondition fails for the supplied data."""


class HypothesisError(FracmpError):
    """A structural hypothesis on the model does not hold."""


class ExponentWindowError(HypothesisError):
    """Growth exponent q outside the admissible window (p-1, p*_s - 1)."""


class OperatorRegimeError(HypothesisError):
    """(s, p) outside the regime 0 < s < 1, p > 1, s*p < 1."""


class PotentialGateError(HypothesisError):
    """Negative part of the potential too large: c_V >= lambda1."""


class GateError(ConfigurationError):
    """Aggregate of named gate violations found while validating a config."""

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(
            "%s: %s" % (type(v).__name__, v) for v in self.violations
        )
        super().__init__(
            "%d gate violation(s): %s" % (len(self.violations), detail)
        )


class SolverError(FracmpError):
    """Iterative solver failure. Carries the last iterate and diagnostics."""

    def __init__(self, message, last=None, iterations=0, residual=float("nan")):
        super().__init__(message)
        self.last = last
        self.iterations = int(iterations)
        self.residual = float(residual)


class ExportError(FracmpError):
    """Report writing failure. Carries the offending path."""

    def __init__(self, message, path):
        self.path = str(path)
        super().__init__("%s: %s" % (message, self.path))
