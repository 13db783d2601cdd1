"""Dense complex-matrix kernels: checked Hermitian eigendecomposition, PSD
square root and partial transpose.

Matrices are plain complex128 numpy arrays. All operations are pure
functions; nothing here mutates its inputs. The check tolerances are fixed
module constants; only states.check takes a trace bound, so the oracle can
widen it by the reservoir's cutoff tail.
"""

import numpy as np

from . import kernels
from .errors import BadDim, NoConvergence, NotHermitian, NotPSD

HERM_TOL = 1e-10   # max entrywise |m - m†| accepted as Hermitian
PSD_TOL = 1e-9     # an eigenvalue below -PSD_TOL is an error (NotPSD)
TRACE_TOL = 1e-10  # |Tr rho - 1| accepted for density matrices


def as_matrix(m, stacked: bool = False) -> np.ndarray:
    """Coerce a matrix-like to a complex ndarray; with stacked=True, also an
    (N, n, n) stack of square matrices."""
    a = np.asarray(m, dtype=complex)
    if (a.ndim != 2 and not (stacked and a.ndim == 3)) or a.shape[-2] != a.shape[-1]:
        raise BadDim(f"expected a square matrix, got shape {a.shape}")
    return a


def _stack_prefix(a, k) -> str:
    # how an error names matrix k: "matrix k of the stack: " in an
    # (N, n, n) stack, nothing for a single matrix
    return f"matrix {k} of the stack: " if a.ndim == 3 else ""


def _eigen(a, kernel):
    # kernel on the Hermitian part of a, and each matrix's hermiticity
    # defect; the one place an eigensolver failure becomes NoConvergence.
    # A non-finite entry is not Hermitian within any tolerance: it raises
    # before the solver sees it, naming the first such matrix of a stack.
    finite = np.isfinite(a).all(axis=(-2, -1))
    if not finite.all():
        where = (f"matrix {np.flatnonzero(~finite)[0]} of the stack"
                 if a.ndim == 3 else "matrix")
        raise NotHermitian(f"{where} has a non-finite entry")
    a_dag = kernels._dagger(a)
    try:  # halves first: a + a† overflows for entries near the largest float
        out = kernel(a / 2.0 + a_dag / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    with np.errstate(over="ignore"):  # an inf defect is the right verdict
        return out, np.abs(a - a_dag).max(axis=(-2, -1))


def hermitian_eig(m):
    """Eigenvalues (ascending) and orthonormal eigenvector columns; raises
    NotHermitian if m is not Hermitian within HERM_TOL and NoConvergence if
    the eigensolver does not converge."""
    (w, v), defect = _eigen(as_matrix(m), kernels.eigh_herm)
    if defect > HERM_TOL:
        raise NotHermitian(f"hermiticity defect {defect:.3e} > {HERM_TOL:.1e}")
    return w, v


def psd_eig(m):
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a PSD
    matrix, per matrix for an (N, n, n) stack. The first matrix that is not
    Hermitian within HERM_TOL raises NotHermitian, or that has an eigenvalue
    below -PSD_TOL NotPSD; the caller clips the noise-level negatives
    (kernels._clip_spectrum)."""
    return _checked_psd(as_matrix(m, stacked=True), kernels.eigh_herm)


def _checked_psd(a, kernel):
    # kernel's output, whose last two items are the ascending spectrum and
    # the eigenvectors, once every matrix passes the PSD checks
    out, defect = _eigen(a, kernel)
    w = out[-2]
    bad = np.flatnonzero((defect > HERM_TOL) | (w[..., 0] < -PSD_TOL))
    if bad.size:  # the first failing matrix names itself
        k = bad[0]
        defect, wmin = np.ravel(defect)[k], np.ravel(w[..., 0])[k]
        if defect > HERM_TOL:
            raise NotHermitian(f"{_stack_prefix(a, k)}hermiticity defect {defect:.3e} "
                               f"> {HERM_TOL:.1e}")
        raise NotPSD(f"{_stack_prefix(a, k)}eigenvalue {wmin:.3e} < -{PSD_TOL:.1e}")
    return out


def psd_sqrt(m) -> np.ndarray:
    """Hermitian PSD square root of a matrix, or of each matrix in an
    (N, n, n) stack by the same arithmetic, checked as psd_eig; eigenvalues
    under kernels._clip_spectrum's floor are taken as 0."""
    return _checked_psd(as_matrix(m, stacked=True), kernels.psd_sqrt_with_min)[0]


def partial_transpose(rho) -> np.ndarray:
    """Transpose the second qubit's factor of a two-qubit (4x4) matrix, or of
    each matrix in an (N, 4, 4) stack."""
    a = as_matrix(rho, stacked=True)
    if a.shape[-2:] != (4, 4):
        raise BadDim(f"partial transpose needs 4x4 matrices, got shape {a.shape}")
    return kernels._partial_transpose(a)
