"""Exception types shared across the package.

Each class carries the exit code the command line reports for it: 1 for a
check that failed, 2 for malformed input, 3 for an internal failure.
"""


class MonodualError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 3


class NegativeRate(MonodualError):
    """An off-diagonal rate is negative."""

    exit_code = 2

    def __init__(self, n, m, rate):
        self.n, self.m, self.rate = n, m, rate
        super().__init__(f"negative rate {rate!r} at state {n}, offset {m}")


class NotMonotone(MonodualError):
    """Operation requires a stochastically monotone rate matrix."""

    exit_code = 1

    def __init__(self, report):
        self.report = report
        k = len(report.violations)
        super().__init__(f"rate matrix is not stochastically monotone ({k} violation(s))")


class DualRateNegative(MonodualError):
    """Dual construction produced a genuinely negative off-diagonal rate."""

    exit_code = 1

    def __init__(self, n, j, rate):
        self.n, self.j, self.rate = n, j, rate
        super().__init__(f"dual rate at ({n}, {j}) is negative: {rate!r}")


class MomentUnbounded(MonodualError):
    """Jump-kernel moment exceeds the finiteness bound at some grid point."""

    exit_code = 1

    def __init__(self, x, value):
        self.x, self.value = x, value
        super().__init__(f"kernel moment at x={x!r} is {value!r}; not finitely bounded")


class GrowthViolated(MonodualError):
    """Linear-growth inequality fails at some grid point."""

    exit_code = 1

    def __init__(self, x, lhs, rhs):
        self.x, self.lhs, self.rhs = x, lhs, rhs
        super().__init__(f"growth condition fails at x={x!r}: {lhs!r} > {rhs!r}")


class TailMassUnresolved(MonodualError):
    """Kernel cannot supply bin masses at the requested resolution."""


class UnsupportedKernelCase(MonodualError):
    """A model the operation cannot take: its kernel case, sides or parts."""

    exit_code = 2


class NegativeDualDensity(MonodualError):
    """Dual kernel density is negative beyond roundoff at some point."""

    exit_code = 1

    def __init__(self, x, y, value):
        self.x, self.y, self.value = x, y, value
        super().__init__(f"dual kernel density at (x={x!r}, y={y!r}) is {value!r}")


class QuadratureFailure(MonodualError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class WindowEscape(MonodualError):
    """Too many simulated paths left the lattice window for the result to be trusted."""

    exit_code = 1

    def __init__(self, fraction, limit):
        self.fraction, self.limit = fraction, limit
        super().__init__(f"window escape fraction {fraction:.3%} exceeds limit {limit:.3%}")


class InputFormatError(MonodualError):
    """Input file, mapping, or expression does not match its expected format."""

    exit_code = 2
