"""Exception types shared across the package."""


class JetsymError(Exception):
    """Base class for all package errors."""


class DivisionByZero(JetsymError):
    """Division by the zero element of the coefficient field."""


class PoleAtParameter(JetsymError):
    """A coefficient denominator vanishes at the requested parameter value."""

    def __init__(self, value, den_text="", monomial=None):
        self.value = value
        self.den_text = den_text
        self.monomial = monomial
        msg = f"pole at parameter = {value}"
        if den_text:
            msg += f" (denominator {den_text})"
        super().__init__(msg)


class ExplicitXTDependence(JetsymError):
    """Operation requires an expression free of explicit x and t."""


class NonIntegerExponentPath(JetsymError):
    """Formal integration in a single generator would need a logarithm."""


class NonlocalObstruction(JetsymError):
    """An antiderivative was requested for an expression outside Im D_x."""

    def __init__(self, remainder, entry=None):
        self.remainder = remainder
        self.entry = entry
        where = f" at matrix entry {entry}" if entry is not None else ""
        super().__init__(f"nonlocal obstruction{where}: remainder is nonzero")


class StructuralViolation(JetsymError):
    """A field fails the required leading-linear-plus-nonlinear-tail shape."""

    def __init__(self, reason, monomial=None, component=None):
        self.reason = reason
        self.monomial = monomial
        self.component = component
        super().__init__(reason)


class CrossCheckFailed(JetsymError):
    """Two independent computations of the same exact fact disagree.

    This signals a defect in the package, never a property of the input.
    """


class NotDecomposable(JetsymError):
    """Density does not split as constant * w + exact part; ``certificate``
    is the integration that shows it."""

    def __init__(self, message, certificate=None):
        self.certificate = certificate
        super().__init__(message)


class AnsatzTooLarge(JetsymError):
    """Density ansatz exceeds the configured unknown-count cap."""

    def __init__(self, count, cap):
        self.count = count  # None past 2^64
        self.cap = cap
        shown = "over 2^64" if count is None else count
        super().__init__(f"ansatz has {shown} unknowns, cap is {cap}")


class HierarchyTooLarge(JetsymError):
    """A hierarchy would pass its generation budget: the terms one fs
    recursion step reads, or the members of a ts1 hierarchy."""

    def __init__(self, count, cap, what="a recursion step would read", unit="terms"):
        self.count = count
        self.cap = cap
        super().__init__(f"{what} {count} {unit}, cap is {cap}")


class JetOrderOutOfRange(JetsymError, ValueError):
    """A jet order is negative or past the generator encoding's ceiling.

    Input readers turn it into a parse or usage error; raised by D_x on a
    valid input, it is a resource limit.
    """


class DxBudgetExceeded(JetsymError):
    """D_x would pass one of its budgets in bits: the growth bound of a D_x
    table or of an Euler evaluation, or the packed terms one of them forms."""

    def __init__(self, what, bits, budget):
        self.bits = bits
        self.budget = budget
        super().__init__(f"{what} {bits} bits, budget is {budget}")


class NumberTooLong(JetsymError):
    """A rational has more digits than Python will print."""


class ParseError(JetsymError):
    """Syntax error in a system definition."""

    def __init__(self, line, column, message):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class UnknownIdentifier(ParseError):
    """Identifier is not a declared variable, derivative, or parameter."""


class DuplicateEquation(JetsymError):
    """More than one evolution equation for the same dependent variable."""


class MissingEquation(JetsymError):
    """A declared dependent variable has no evolution equation."""


class InvalidHierarchy(JetsymError):
    """Hierarchy JSON names an unknown system or does not fit its system."""


class InvalidSetting(JetsymError):
    """An environment setting holds a value the package cannot use."""
