"""Error types the package raises for bad input and for numerical failure.

No command-line entry point exists yet; the planned ``objectslam`` CLI
(ROADMAP item 5) is to exit with code 2 on a DataFormatError and 3 on a
NumericalError.
"""


class DataFormatError(Exception):
    """Malformed input file or schema violation."""


class NumericalError(Exception):
    """Numerical failure: singular covariance, non-SPD input, solver breakdown."""
