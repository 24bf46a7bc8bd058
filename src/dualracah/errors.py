"""Exception hierarchy shared by all modules."""


class DualRacahError(Exception):
    """Base class for all library errors."""


class SingularMatrix(DualRacahError):
    pass


class NegativeRadicand(DualRacahError):
    pass


class ZeroPolynomial(DualRacahError):
    pass


class IndexOutOfRange(DualRacahError):
    pass


class ZeroDenominator(DualRacahError):
    pass


class NonPositiveWeight(DualRacahError):
    pass


class InadmissibleParams(DualRacahError):
    pass


class BadQ(InadmissibleParams):
    pass


class BadN(InadmissibleParams):
    pass


class DegreeMismatch(DualRacahError):
    pass


class CrossCheckMismatch(DualRacahError):
    pass


class NonMonotone(DualRacahError):
    pass


class NegativeYCoefficient(DualRacahError):
    pass


class ShapeMismatch(DualRacahError):
    pass


class SingularR0(DualRacahError):
    pass


class NegativePivot(DualRacahError):
    pass


class InadmissibleCandidate(DualRacahError):
    pass


class ConfigError(DualRacahError):
    pass
