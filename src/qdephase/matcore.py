"""Dense complex-matrix kernels: checked Hermitian eigendecomposition, PSD
square root and partial transpose.

Matrices are plain complex128 numpy arrays. All operations are pure
functions; nothing here mutates its inputs. The check tolerances are fixed
module constants; only states.check takes a trace bound, so the oracle can
widen it by the reservoir's cutoff tail.
"""

import numpy as np

from . import kernels
from .errors import BadDim, InvalidState, NoConvergence, NotHermitian, NotPSD

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


def _eigen(a, kernel, trace_tol=None):
    # kernel on the Hermitian part of a matrix or stack, and the failed
    # checks of its first failing matrix, as (error class, text) pairs: a
    # hermiticity defect above HERM_TOL, |Tr - 1| above trace_tol if given,
    # and on a Hermitian matrix an eigenvalue below -PSD_TOL, each text
    # prefixed by _stack_prefix. kernel returns the ascending spectrum, or
    # a tuple ending in it and the eigenvectors. A non-finite entry is not
    # Hermitian within any tolerance: no solver can run on it, so the first
    # such matrix is the one failure, wherever it sits. The one place an
    # eigensolver failure becomes NoConvergence.
    finite = np.isfinite(a).all(axis=(-2, -1))
    if not finite.all():
        where = (f"matrix {np.flatnonzero(~finite)[0]} of the stack"
                 if a.ndim == 3 else "matrix")
        return None, [(NotHermitian, f"{where} has a non-finite entry")]
    a_dag = kernels._dagger(a)
    try:  # halves first: a + a† overflows for entries near the largest float
        out = kernel(a / 2.0 + a_dag / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    w_min = (out if isinstance(out, np.ndarray) else out[-2])[..., 0]
    with np.errstate(over="ignore"):  # an inf defect or deviation is the right verdict
        defect = np.abs(a - a_dag).max(axis=(-2, -1))
        checks = [(NotHermitian, defect > HERM_TOL, defect,
                   f"hermiticity defect {{:.3e}} exceeds {HERM_TOL:.1e}")]
        if trace_tol is not None:
            deviation = np.abs(np.trace(a, axis1=-2, axis2=-1) - 1.0)
            checks.append((InvalidState, deviation > trace_tol, deviation,
                           "trace deviates from 1 by {:.3e}"))
    checks.append((NotPSD, (defect <= HERM_TOL) & (w_min < -PSD_TOL), w_min,
                   f"negative eigenvalue {{:.3e}} below -{PSD_TOL:.1e}"))
    bad = np.flatnonzero(sum(hit for _, hit, _, _ in checks))  # failed checks per matrix
    if not bad.size:
        return out, []
    k = bad[0]
    return out, [(cls, _stack_prefix(a, k) + text.format(np.ravel(value)[k]))
                 for cls, hit, value, text in checks if np.ravel(hit)[k]]


def _raise_first(out, failed):
    # out, or the first failed check raised
    if failed:
        cls, text = failed[0]
        raise cls(text)
    return out


def hermitian_eig(m):
    """Eigenvalues (ascending) and orthonormal eigenvector columns; raises
    NotHermitian if m is not Hermitian within HERM_TOL and NoConvergence if
    the eigensolver does not converge."""
    out, failed = _eigen(as_matrix(m), kernels.eigh_herm)
    return _raise_first(out, [f for f in failed if f[0] is NotHermitian])


def psd_eig(m):
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a PSD
    matrix, per matrix for an (N, n, n) stack. The first matrix that is not
    Hermitian within HERM_TOL raises NotHermitian, or that has an eigenvalue
    below -PSD_TOL NotPSD; the caller clips the noise-level negatives
    (kernels._clip_spectrum)."""
    return _raise_first(*_eigen(as_matrix(m, stacked=True), kernels.eigh_herm))


def psd_sqrt(m) -> np.ndarray:
    """Hermitian PSD square root of a matrix, or of each matrix in an
    (N, n, n) stack by the same arithmetic, checked as psd_eig; eigenvalues
    under kernels._clip_spectrum's floor are taken as 0."""
    return _raise_first(*_eigen(as_matrix(m, stacked=True), kernels.psd_sqrt_with_min))[0]


def partial_transpose(rho) -> np.ndarray:
    """Transpose the second qubit's factor of a two-qubit (4x4) matrix, or of
    each matrix in an (N, 4, 4) stack."""
    a = as_matrix(rho, stacked=True)
    if a.shape[-2:] != (4, 4):
        raise BadDim(f"partial transpose needs 4x4 matrices, got shape {a.shape}")
    return kernels._partial_transpose(a)
