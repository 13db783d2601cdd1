"""Hot numeric kernels: Hermitian eigendecomposition, PSD square root,
fidelity trace, and the closest-separable-state objective with its analytic
gradient.

Plain numpy, one implementation. Everything here is pure and deterministic
for fixed inputs on one platform.
"""

import numpy as np

BACKEND = "python"

# Relative floor under square roots / logarithms: eigenvalues of a
# rank-deficient product carry O(eps) noise whose sqrt would pollute
# fidelities at the 1e-8 level.
NOISE_FLOOR_REL = 64.0 * np.finfo(float).eps

# Packing of the 16 parameters into the lower-triangular factor L, row by
# row: each strictly-lower entry takes two slots (real, imaginary), each
# diagonal entry one (real). vec(L) = _PACK @ x, and a lower-triangular L,
# or a gradient dL in L, maps back to the slots as Re(_PACK^H vec(dL)).
_TRIL = np.tril_indices(4)
_LOWER = np.tril_indices(4, -1)
_PACK = np.zeros((16, 16), dtype=complex)
_PACK[4 * _TRIL[0] + _TRIL[1], [0, 1, 3, 4, 6, 8, 9, 11, 13, 15]] = 1.0
_PACK[4 * _LOWER[0] + _LOWER[1], [2, 5, 7, 10, 12, 14]] = 1j
_UNPACK = _PACK.conj().T.copy()


def _clip_spectrum(w):
    # w ascending along the last axis, as eigh/eigvalsh return it, so
    # w[..., -1:] is the top of each spectrum
    w = np.maximum(w, 0.0)
    w[w < NOISE_FLOOR_REL * w[..., -1:]] = 0.0
    return w


def _dagger(m):
    return np.swapaxes(m.conj(), -1, -2)


def _partial_transpose(m):
    # the second qubit's transpose of a 4x4 matrix or of each in a stack
    return np.swapaxes(m.reshape(m.shape[:-2] + (2, 2, 2, 2)), -3, -1).reshape(m.shape)


def purity(m):
    """Tr m^2 of a Hermitian matrix, or an (N,) array for an (N, 4, 4) stack:
    per matrix, the BLAS dot np.vdot(m, m) takes, whatever the stack."""
    row = m.reshape(m.shape[:-2] + (1, -1))
    return (row.conj() @ np.swapaxes(row, -1, -2)).real[..., 0, 0][()]


def eigh_herm(m):
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian matrix."""
    return np.linalg.eigh(m)


def eigvalsh_herm(m):
    """Ascending eigenvalues of a Hermitian matrix."""
    return np.linalg.eigvalsh(m)


def psd_sqrt_with_min(m):
    """PSD square root of a Hermitian matrix, or of each in an (N, 4, 4)
    stack, clipping noise-level negatives.

    Returns (sqrt, w, v): the root and the eigendecomposition it was built
    from, eigenvalues ascending, so w[..., 0] is the minimum eigenvalue; the
    caller decides whether that is negative enough to be an error.
    """
    w, v = np.linalg.eigh(m)
    s = (v * np.sqrt(_clip_spectrum(w))[..., None, :]) @ _dagger(v)
    return (s + _dagger(s)) / 2.0, w, v


def sqrt_fidelity(sqrt_rho, sigma):
    """Tr sqrt(sqrt_rho @ sigma @ sqrt_rho) for a precomputed sqrt_rho; an
    (N,) array for stacked inputs."""
    m = sqrt_rho @ sigma @ sqrt_rho
    w = np.linalg.eigvalsh((m + _dagger(m)) / 2.0)
    root = np.sqrt(_clip_spectrum(w)).sum(axis=-1)
    return float(root) if root.ndim == 0 else root


def pt_min_eig(m):
    """Minimum eigenvalue of the second-qubit partial transpose, per matrix of a stack."""
    return np.linalg.eigvalsh(_partial_transpose(m))[..., 0][()]


def _factor(x):
    """L packed in the 16 reals x, and Tr LL† = sum |L_ij|^2 = x·x."""
    x = np.asarray(x, dtype=float)
    return (_PACK @ x).reshape(4, 4), float(x @ x)


def params_from_factor(ell):
    """The 16 reals that pack a lower-triangular factor with real diagonal."""
    return (_UNPACK @ ell.ravel()).real


def sigma_from_params(x):
    """Map 16 reals to a unit-trace PSD 4x4 matrix via sigma = LL†/Tr(LL†).

    L is lower triangular: 4 real diagonal entries and 6 complex
    strictly-lower entries, packed row by row.
    """
    ell, tr = _factor(x)
    if tr < 1e-120:
        return None
    return (ell @ ell.conj().T) / tr


def css_objective(x, sqrt_rho, penalty_weight):
    """Penalized Bures objective and its gradient in the 16 parameters.

    The value is 1 - sqrt(F) + w * sum(max(0, -pt_eigs)^2) at
    sigma = sigma_from_params(x). Returns (value, gradient); parameters that
    give L = 0 return (1e6, 0).

    The gradient is assembled as a Hermitian G with d(value) = Tr(G dsigma):
    the fidelity term contributes -1/2 sqrt_rho M^(-1/2) sqrt_rho with
    M = sqrt_rho sigma sqrt_rho, inverted on M's support under the same
    noise floor as the value; each negative partial-transpose eigenvalue
    lambda with eigenvector v adds 2 w lambda (v v†)^Γ. Through
    sigma = LL†/tr the trace normalization projects G to
    G' = (G - Tr(G sigma) I)/tr, and d(value)/dL = 2 G' L, read off as real
    parts at the real slots and imaginary parts at the imaginary slots.
    """
    ell, tr = _factor(x)
    if tr < 1e-120:
        return 1e6, np.zeros(16)
    sigma = (ell @ ell.conj().T) / tr

    m = sqrt_rho @ sigma @ sqrt_rho
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    root = np.sqrt(_clip_spectrum(w))
    inv_root = np.zeros(4)
    inv_root[root > 0.0] = 1.0 / root[root > 0.0]
    b = sqrt_rho @ v
    g = -0.5 * (b * inv_root) @ b.conj().T
    value = 1.0 - float(root.sum())

    lam, u = np.linalg.eigh(_partial_transpose(sigma))
    if lam[0] < 0.0:
        neg = lam < 0.0
        lam, u = lam[neg], u[:, neg]
        value += penalty_weight * float(lam @ lam)
        g += _partial_transpose((u * (2.0 * penalty_weight * lam)) @ u.conj().T)

    dl = (2.0 / tr) * (g @ ell - np.vdot(g, sigma).real * ell)
    return value, (_UNPACK @ dl.ravel()).real
