"""Structured exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for every structured error raised by this package."""


# numerics
class DimensionMismatch(WorkbenchError):
    pass


class NotHermitian(WorkbenchError):
    pass


class NotPositive(WorkbenchError):
    pass


# algebra and maps
class ShapeMismatch(WorkbenchError):
    pass


class NotState(WorkbenchError):
    pass


class NotInjective(WorkbenchError):
    pass


class NotCP(WorkbenchError):
    pass


class NotUnital(WorkbenchError):
    pass


class TransferInvalid(WorkbenchError):
    pass


class RangeNotInImage(WorkbenchError):
    pass


# covariant pairs, extension chains, dilations
class NotContraction(WorkbenchError):
    pass


class StrategyInvalid(WorkbenchError):
    pass


class InvarianceViolation(WorkbenchError):
    pass


class DecompositionMismatch(WorkbenchError):
    pass


class LevelMismatch(WorkbenchError):
    pass


class SpanDeficient(WorkbenchError):
    pass


# tensor tower backend
class DepthExceeded(WorkbenchError):
    pass


class DepthZero(WorkbenchError):
    pass


class SizeCap(WorkbenchError):
    pass


# scenario front end
class ScenarioParseError(WorkbenchError):
    pass


class ScenarioValidationError(WorkbenchError):
    """Raised when a scenario fails one of the named validation gates."""

    def __init__(self, gate: str, message: str):
        super().__init__(f"[{gate}] {message}")
        self.gate = gate
