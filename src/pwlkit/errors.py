"""Exception types shared across the toolkit."""


class PwlError(Exception):
    """Base class for all pwlkit errors."""


class DimensionMismatchError(PwlError):
    """An input's dimension does not match what the model expects."""

    def __init__(self, expected, got, what="point"):
        self.expected = int(expected)
        self.got = int(got)
        super().__init__(
            f"dimension mismatch: {what} has dimension {got}, expected {expected}"
        )


class InvalidInputError(PwlError, ValueError):
    """An argument is malformed: a box that is not finite or not lo < hi on
    every axis, or a grid density below 1."""


class CoverageGapError(PwlError):
    """A query point is contained in no region of a region-wise model."""

    def __init__(self, point):
        self.point = point
        super().__init__(f"no region contains the point {[float(v) for v in point]}")


class DiscontinuousModelError(PwlError):
    """An operation requires a continuous model but found boundary jumps."""


class NotCplrRepresentableError(PwlError):
    """The model fails the consistent-variation condition.

    Carries the violating boundary hyperplane as ``certificate``.
    """

    def __init__(self, certificate):
        self.certificate = certificate
        super().__init__(
            "model is not representable as a single-level canonical form; "
            f"violating hyperplane: {certificate}"
        )


class ConstructionError(PwlError, RuntimeError):
    """A transform built a model that failed its own verification, or found
    no interior point to build from."""


class DegenerateSplitError(PwlError):
    """Hinge finding could not maintain two non-empty sides."""


class DcSizeError(PwlError):
    """A difference-of-convex operand exceeded the affine-set size cap."""

    def __init__(self, size, cap):
        self.size = int(size)
        self.cap = int(cap)
        super().__init__(
            f"difference-of-convex affine set grew to {size} rows, cap is {cap}"
        )


class BudgetExceededError(PwlError):
    """A region-analysis request exceeded the method's size budget."""

    def __init__(self, units, limit):
        self.units = int(units)
        self.limit = int(limit)
        super().__init__(
            f"{units} hidden units exceed the exact-enumeration budget of {limit}"
        )


class NonFiniteLossError(PwlError):
    """Forward or backward pass produced a non-finite value."""

    def __init__(self, layer_index):
        self.layer_index = int(layer_index)
        super().__init__(f"non-finite value at layer {layer_index}")


class NonFiniteValueError(PwlError):
    """A model's value is not finite at a finite point: its terms overflow."""

    def __init__(self, point, what="the model"):
        self.point = point
        super().__init__(f"{what}'s value is not finite at the point "
                         f"{[float(v) for v in point]}")


class NonFiniteFitError(PwlError):
    """A least-squares refit's sum of squared errors overflowed."""


class SingularSystemError(PwlError):
    """A least-squares system is rank deficient and no damping was requested."""


class ParseError(PwlError):
    """A model text file could not be parsed."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
