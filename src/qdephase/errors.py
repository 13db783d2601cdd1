"""Exception types raised by the library."""


class QDephaseError(Exception):
    """Base class for all qdephase errors."""


class NotHermitian(QDephaseError):
    """Input matrix is not Hermitian within tolerance."""


class NoConvergence(QDephaseError):
    """Iterative eigensolver exhausted its sweep budget."""


class NotPSD(QDephaseError):
    """Matrix has an eigenvalue below the negative tolerance."""


class BadDim(QDephaseError):
    """Matrix dimension does not match the operation's requirement."""


class InvalidState(QDephaseError):
    """Matrix fails the density-matrix invariants.

    Carries a list of human-readable diagnostics, one per violated
    invariant, each with the violation magnitude.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class CutoffTooTight(QDephaseError):
    """Requested truncation tail needs more Fock states than the hard limit."""
