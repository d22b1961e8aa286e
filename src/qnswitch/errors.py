"""Exception types shared across the package."""


class SizeLimitError(ValueError):
    """A requested computation exceeds a hard size guard.

    Raised instead of silently attempting factorial- or exponential-size
    work (causal-order enumeration, brute-force Kraus sums).
    """


class NumericalError(RuntimeError):
    """An internal numerical step failed on well-formed input.

    Raised when the eigensolver does not converge or returns a spectrum
    below the negative-eigenvalue slack. It signals a defect in the
    computation, not in the arguments, and is never a ValueError.
    """
