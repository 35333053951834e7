"""Error taxonomy shared across the package."""


class KitaevChainError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(KitaevChainError):
    """An argument is outside its documented domain."""


class DimensionError(KitaevChainError):
    """A matrix or vector has an incompatible or empty shape."""


class SymmetryError(KitaevChainError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class SingularModeError(KitaevChainError):
    """A momentum mode is singular: zero energy, or a vanishing pair-amplitude denominator."""


class SizeError(KitaevChainError):
    """A brute-force computation was requested beyond its feasibility bound."""


class NormalizationError(KitaevChainError):
    """A state vector expected to be normalized is not."""


class ValidityError(KitaevChainError):
    """A density matrix or spectrum violates positivity beyond tolerance."""


class ConvergenceError(KitaevChainError):
    """An iterative solver hit its iteration cap.

    Carries the best residual seen so the caller can judge how close it got.
    """

    def __init__(self, message, best_residual=None, iterations=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.iterations = iterations
