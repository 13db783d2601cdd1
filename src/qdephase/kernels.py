"""Hot numeric kernels: Hermitian eigendecomposition, the spectrum floor,
PSD square root and fidelity trace (the tests' reference routes), and the
closest-separable-state objective over mixtures of four product states,
with its analytic gradient, for any factor rho = uu†.

Plain numpy, one implementation. Everything here is pure and deterministic
for fixed inputs on one platform.
"""

import numpy as np

BACKEND = "python"

# Relative floor under square roots / logarithms: eigenvalues of a
# rank-deficient product carry O(eps) noise whose sqrt would pollute
# fidelities at the 1e-8 level.
NOISE_FLOOR_REL = 64.0 * np.finfo(float).eps


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


def trace_dot(a, b):
    """Re Tr(a b) for a Hermitian a, or an (N,) array for (N, 4, 4) stacks:
    Tr(a b) = sum_ij conj(a_ij) b_ij, per matrix the BLAS dot np.vdot(a, b)
    takes, whatever the stack, with no matrix product formed."""
    row_a = a.reshape(a.shape[:-2] + (1, -1))
    row_b = b.reshape(b.shape[:-2] + (1, -1))
    return (row_a.conj() @ np.swapaxes(row_b, -1, -2)).real[..., 0, 0][()]


def purity(m):
    """Tr m^2 of a Hermitian matrix, per matrix of a stack: trace_dot(m, m)."""
    return trace_dot(m, m)


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


def _product_columns(x):
    """The four members packed in the 32 reals x, 8 per member (Re a, Im a,
    Re b, Im b): a (4, 2) and b (4, 2), Z with column k = a_k (x) b_k, and
    Tr ZZ† = sum_k |a_k|^2 |b_k|^2."""
    p = np.asarray(x, dtype=float).reshape(4, 4, 2)
    a, b = p[:, 0] + 1j * p[:, 1], p[:, 2] + 1j * p[:, 3]
    z = (a[:, :, None] * b[:, None, :]).reshape(4, 4).T
    return a, b, z, float(np.vdot(z, z).real)


def sigma_from_params(x):
    """Map 32 reals to a separable unit-trace 4x4 state sigma = ZZ†/Tr(ZZ†):
    the mixture of the four product states a_k (x) b_k, with weights
    |a_k|^2 |b_k|^2. None where every member vanishes."""
    _, _, z, tr = _product_columns(x)
    if tr < 1e-120:
        return None
    return (z @ z.conj().T) / tr


def css_objective(x, u):
    """Bures objective 1 - sqrt(F) at sigma = sigma_from_params(x), and its
    gradient in the 32 parameters, for any factor u of rho = uu†. Parameters
    that give Z = 0 return (1e6, 0).

    sigma's factor Z/sqrt(tr) gives sqrt(F) = ||u†Z||_1/sqrt(tr) (Uhlmann,
    Rep. Math. Phys. 9, 273 (1976)), a sum of singular values. With
    u†Z = P S R† and W = P R† on the singular values above the noise floor,
    d(value) = Re Tr(G† dZ) with G = ||u†Z||_1 Z/tr^(3/2) - uW/sqrt(tr).
    With column k of G read as a 2x2 matrix G_k, the gradient in a_k is
    G_k conj(b_k), and in b_k it is G_k^T conj(a_k), as real and imaginary
    parts.
    """
    a, b, z, tr = _product_columns(x)
    if tr < 1e-120:
        return 1e6, np.zeros(32)
    p, s, rh = np.linalg.svd(u.conj().T @ z)
    keep = s > NOISE_FLOOR_REL * s[0]
    norm = float(s.sum())
    g = (norm / tr**1.5) * z - (u @ p[:, keep] @ rh[keep]) / np.sqrt(tr)
    gk = g.T.reshape(4, 2, 2)
    grad_a = np.einsum("kij,kj->ki", gk, b.conj())
    grad_b = np.einsum("kij,ki->kj", gk, a.conj())
    grad = np.stack([grad_a.real, grad_a.imag, grad_b.real, grad_b.imag], axis=1)
    return 1.0 - norm / np.sqrt(tr), grad.ravel()
