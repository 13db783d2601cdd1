"""Test-side references: the paper's printed closed forms that the program
never runs, the reference tools the tests reduce by hand with, and the
fixtures several test modules share.

The tests reproduce each printed form against the library's spectral
pipelines; where the print is wrong, the docstring says how. Nothing in
src/qdephase imports this module, and pytest does not collect it.
"""

import functools
import math

import numpy as np

from qdephase.matcore import as_matrix
from qdephase.states import (_checked_unit, family_norm, family_state, initial_pure,
                             outer_block, validate)

BELL = validate(initial_pure(0.5))  # read-only: the test modules share it
SY = np.array([[0.0, -1j], [1j, 0.0]])
# the two-qubit spin flip sy (x) sy, written out by hand
SY2 = np.array([[0, 0, 0, -1],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [-1, 0, 0, 0]], dtype=complex)


def family(eps, abs_a, phase=0.0):
    """The family state with corner factor |a| e^{-i phase}."""
    return family_state(eps, abs_a * np.exp(-1j * phase))


def random_density(rng, rank=4):
    """A random 4x4 density matrix of the given rank."""
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    m = g @ g.conj().T
    return m / m.trace().real


# ------------------------------------------------------------ printed forms


def linear_entropy_closed(epsilon: float, gamma: float) -> float:
    """Family closed form (8/3) eps^2 (1-eps)^2 gamma / n^2."""
    n = epsilon**2 + (1.0 - epsilon) ** 2
    return (8.0 / 3.0) * epsilon**2 * (1.0 - epsilon) ** 2 * gamma / n**2


def pure_ref_measure_family(epsilon: float, abs_a: float) -> float:
    """Family closed form 1 - 2 eps^2 (1-eps)^2 (1-|a|)/n^2 of the measure
    against the co-rotating pure reference, Tr(rho sigma_p): the fidelity
    and, exactly, one minus the linearized relative entropy."""
    n = epsilon**2 + (1.0 - epsilon) ** 2
    return 1.0 - 2.0 * epsilon**2 * (1.0 - epsilon) ** 2 * (1.0 - abs_a) / n**2


def mixed_ref_fidelity(abs_a: float, ntilde: float, phase: float = 0.0) -> float:
    """Closed-form fidelity of the maximally entangled family state to its
    dephasing-floor reference.

    phase is the angle between the state's corner and the reference corner
    (ntilde*sin((mu1+mu2)t) along the channel trajectory). The reference
    corner element has magnitude e^{-2*ntilde}/2; the printed form of the
    auxiliary symbol omits that 1/2, with which the formula would not even
    return 1 for identical states.
    """
    x = math.exp(-2.0 * ntilde) / 2.0
    beta = 2.0 * abs_a * x * math.cos(phase)
    alpha = math.sqrt((1.0 + beta) ** 2
                      - (abs_a**2 - 1.0) * (4.0 * x * x - 1.0))
    lo = math.sqrt(max(0.0, 1.0 + beta - alpha))
    hi = math.sqrt(max(0.0, 1.0 + beta + alpha))
    return 0.25 * (lo + hi) ** 2


def mixed_ref_measure(abs_a: float, ntilde: float, phase: float = 0.0) -> float:
    """Closed-form half-squared Bures distance to the dephasing floor (eps=1/2)."""
    return 1.0 - math.sqrt(mixed_ref_fidelity(abs_a, ntilde, phase))


def maxmixed_fidelity_closed(abs_a: float) -> float:
    """Fidelity to I/4 in its printed closed form (1/4)[sqrt(1-|a|)+sqrt(1+|a|)]^2.

    Documented discrepancy: this is twice the general Uhlmann value (1/2
    versus 1/4 at |a| = 1); kept verbatim as the reproduction target.
    """
    return 0.25 * (math.sqrt(1.0 - abs_a) + math.sqrt(1.0 + abs_a)) ** 2


def maxmixed_measure(abs_a: float) -> float:
    """Closed-form measure 1 - (1/2)[sqrt(1-|a|) + sqrt(1+|a|)] against I/4."""
    return 1.0 - 0.5 * (math.sqrt(1.0 - abs_a) + math.sqrt(1.0 + abs_a))


def mixed_reference_family(epsilon: float, ntilde: float, phase: float = 0.0) -> np.ndarray:
    """General-epsilon dephasing floor: same populations as the family, corner
    damped by e^{-2*ntilde}. Reduces to states.mixed_reference at epsilon = 1/2."""
    if ntilde < 0:
        raise ValueError(f"ntilde must be >= 0, got {ntilde}")
    n = family_norm(_checked_unit("epsilon", epsilon))
    corner = (epsilon * (1.0 - epsilon) / n
              * np.exp(-1j * phase) * np.exp(-2.0 * ntilde))
    return outer_block(epsilon**2 / n, (1.0 - epsilon) ** 2 / n, corner)


# ----------------------------------------------------- 50-digit references


def _family_block_50(epsilon: float, theta: float, ntilde: float):
    """The populations p, q, the corner factor |a| and gamma = 1 - |a|^2 of
    the family state at (mu1 + mu2) t = theta, the float inputs taken as
    exact, in mpmath at the working precision."""
    import mpmath

    eps = mpmath.mpf(epsilon)
    n = eps**2 + (1 - eps) ** 2
    log_a = ntilde * (mpmath.cos(theta) - 1)
    return eps**2 / n, (1 - eps) ** 2 / n, mpmath.exp(log_a), -mpmath.expm1(2 * log_a)


def e_maxmixed_50(epsilon: float, theta: float, ntilde: float) -> float:
    """1 - (sqrt(l1) + sqrt(l2))/2, the family state's distance to I/4, at 50
    digits: l1 >= l2 are the eigenvalues of its 2x2 outer block
    [[p, c], [conj(c), q]], |c|^2 = pq|a|^2, with l2 = pq gamma / l1."""
    import mpmath

    with mpmath.workdps(50):
        p, q, abs_a, gamma = _family_block_50(epsilon, theta, ntilde)
        l1 = (p + q + mpmath.sqrt((p - q) ** 2 + 4 * p * q * abs_a**2)) / 2
        return float(1 - (mpmath.sqrt(l1) + mpmath.sqrt(p * q * gamma / l1)) / 2)


def e_mixed_50(epsilon: float, theta: float, ntilde: float) -> float:
    """1 - sqrt(F), the family state's distance to its dephasing floor
    (corner damped by e^{-2 ntilde}, rotated by ntilde sin(theta) against
    the state's), at 50 digits. On the two unit-trace 2x2 outer blocks
    F = Tr(rho sigma) + 2 sqrt(det rho det sigma), with det rho = pq gamma
    and det sigma = pq (1 - x^2), x = e^{-2 ntilde}."""
    import mpmath

    with mpmath.workdps(50):
        p, q, abs_a, gamma = _family_block_50(epsilon, theta, ntilde)
        x = mpmath.exp(-2 * mpmath.mpf(ntilde))
        overlap = p * p + q * q + 2 * p * q * abs_a * x * mpmath.cos(ntilde * mpmath.sin(theta))
        f = overlap + 2 * p * q * mpmath.sqrt(gamma * (1 - x * x))
        return float(1 - mpmath.sqrt(f))


def _block_form_50(form):
    """The reference(epsilon, theta, ntilde) -> float that evaluates
    form(p, q, |a|, gamma) of _family_block_50 at 50 digits."""
    @functools.wraps(form)
    def reference(epsilon: float, theta: float, ntilde: float) -> float:
        import mpmath

        with mpmath.workdps(50):
            return float(form(*_family_block_50(epsilon, theta, ntilde)))

    return reference


@_block_form_50
def abs_a_50(p, q, abs_a, gamma):
    """|a| = exp(ntilde (cos theta - 1))."""
    return abs_a


@_block_form_50
def delta12_50(p, q, abs_a, gamma):
    """(4/3)(1 - Tr rho^2) = (8/3) pq gamma: Tr rho^2 = p^2 + q^2 + 2pq|a|^2."""
    return 8 * p * q * gamma / 3


@_block_form_50
def concurrence_50(p, q, abs_a, gamma):
    """N = C = 2|c| = 2 sqrt(pq) |a|, the corner's magnitude doubled."""
    import mpmath

    return 2 * mpmath.sqrt(p * q) * abs_a


@_block_form_50
def er_lin_50(p, q, abs_a, gamma):
    """1 - Tr(rho sigma_p) = 2pq(1 - |a|) against the co-rotating pure
    reference (sqrt p, sqrt q), whose corner shares the state's phase."""
    return 2 * p * q * (1 - abs_a)


@_block_form_50
def e_pure_50(p, q, abs_a, gamma):
    """Tr(rho sigma_p) = 1 - 2pq(1 - |a|): e_pure and fidelity_pure."""
    return 1 - 2 * p * q * (1 - abs_a)


@_block_form_50
def concurrence_paper_50(p, q, abs_a, gamma):
    """sqrt(1 - 2pq gamma), the family closed form from the exact gamma."""
    import mpmath

    return mpmath.sqrt(1 - 2 * p * q * gamma)


@_block_form_50
def eof_50(p, q, abs_a, gamma):
    """h((1 + sqrt(1 - C^2))/2) at C = 2 sqrt(pq) |a|, h the binary entropy
    in bits with 0 log 0 = 0."""
    import mpmath

    x = (1 + mpmath.sqrt(1 - 4 * p * q * abs_a**2)) / 2
    return -sum(v * mpmath.log(v, 2) for v in (x, 1 - x) if v > 0)


@_block_form_50
def er_exact_50(p, q, abs_a, gamma):
    """-Tr(sigma_p ln rho) in nats from the outer block's eigenpairs: l1,2 =
    (1 +- D)/2 with D = sqrt(1 - 4pq gamma) and l2 = pq gamma / l1, and
    sigma_p's weight on l1's eigenvector w1 = (F - l2)/D, F = Tr(rho
    sigma_p). l2 = 0 only at pq = 0 or gamma = 0, where w2 = 0 too; D = 0
    (to the working precision) only at the fully dephased Bell state, where
    l1 = l2 = 1/2."""
    import mpmath

    d = mpmath.sqrt(1 - 4 * p * q * gamma)
    if d == 0:
        return mpmath.log(2)
    l1 = (1 + d) / 2
    l2 = p * q * gamma / l1
    w1 = (1 - 2 * p * q * (1 - abs_a) - l2) / d
    return -(w1 * mpmath.log(l1) + ((1 - w1) * mpmath.log(l2) if l2 > 0 else 0))


# ---------------------------------------------------------- reference tools


def partial_trace(full, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in keep.

    dims lists the factor dimensions whose product must equal the matrix
    dimension; keep is a nonempty collection of factor indices, and the kept
    factors stay in their original order.
    """
    a = as_matrix(full)
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    n = int(np.prod(dims))
    if n != a.shape[0]:
        raise ValueError(f"prod(dims)={n} does not match matrix dim {a.shape[0]}")
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must be nonempty")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")

    nf = len(dims)
    if nf > 26:
        raise ValueError("at most 26 tensor factors supported")
    row = [chr(ord("a") + i) for i in range(nf)]
    col = [chr(ord("A") + i) for i in range(nf)]
    for i in range(nf):
        if i not in keep:
            col[i] = row[i]  # traced factor: row and column indices contract
    spec = "".join(row) + "".join(col)
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    r = np.einsum(f"{spec}->{out}", a.reshape(dims + dims))
    d_keep = int(np.prod([dims[i] for i in keep]))
    return r.reshape(d_keep, d_keep)


def joint_vector(j) -> np.ndarray:
    """Full joint pure-state vector on (qubit pair) x (truncated reservoir)
    of an oracle.JointAmplitudes.

    Ordered as the 4-dim qubit basis tensor the flattened Fock grid; only
    the |++> and |--> blocks are populated. Intended for small configs.
    """
    total = int(np.prod(j.sizes))
    v = np.zeros(4 * total, dtype=complex)
    v[:total] = j.weight_plus * j.plus
    v[3 * total:] = j.weight_minus * j.minus
    return v
