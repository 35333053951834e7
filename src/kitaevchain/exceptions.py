"""Error taxonomy shared across the package.

Every rejected argument, whatever its check (shape, symmetry, norm, range),
raises ParameterError; so do couplings with a singular momentum mode (zero
energy, or a vanishing pair-amplitude denominator).
"""


class KitaevChainError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(KitaevChainError):
    """An argument is outside its documented domain."""


class SizeError(KitaevChainError):
    """A brute-force computation was requested beyond its feasibility bound."""


class ConvergenceError(KitaevChainError):
    """An iterative solver hit its iteration cap or ran out of directions.

    Carries the best residual seen so the caller can judge how close it got,
    and the iterations actually run.
    """

    def __init__(self, message, best_residual=None, iterations=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.iterations = iterations
