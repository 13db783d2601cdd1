"""Entanglement and mixedness measures.

Two routes are carried side by side wherever the closed form disagrees with
the general definition: spectral pipelines (authoritative) and the family
closed forms (reproduction targets). They are asserted against each other in
tests rather than reconciled here.

Each closed form is one numpy function: an array gives a column, a scalar a
numpy scalar, by the same arithmetic (squares as x * x: a numpy scalar's
x**2 goes through pow, which can round differently). The spectral measures
of a sweep also come stacked (stacked_measures): the same arithmetic over an
(N, 4, 4) array of states, one decomposition call per stack. The
single-state functions stay the reference it is tested against.
"""

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import kernels
from .errors import InvalidState, NoConvergence, SupportMismatch
from .matcore import DEFAULT_TOL, as_matrix, hermitian_eig, partial_transpose, psd_sqrt
from .states import maximally_mixed

# weight a pure reference may carry outside the state's support before the
# relative entropy is reported as infinite
SUPPORT_WEIGHT_TOL = 1e-8
PURITY_TOL = 1e-8  # |Tr sigma^2 - 1| accepted for a pure reference

# MeasureRecord fields that must lie in [0, 1] (within RANGE_SLACK)
UNIT_RANGED = ("delta12", "negativity", "concurrence_wootters",
               "concurrence_paper", "eof", "fidelity_pure", "e_pure",
               "e_mixed", "e_maxmixed", "er_lin")
RANGE_SLACK = 1e-12

_SY2 = np.array(
    [[0, 0, 0, -1],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [-1, 0, 0, 0]], dtype=complex)  # sigma_y (x) sigma_y, the two-qubit spin flip


def _max0(x):
    # max(0.0, x) elementwise as Python evaluates it: NaN and -0.0 give 0.0;
    # [()] makes a 0-d result a numpy scalar
    return np.where(x > 0.0, x, 0.0)[()]


def _min1(x):
    # min(1.0, x) elementwise as Python evaluates it
    return np.where(x < 1.0, x, 1.0)[()]


def _norm(epsilon: float) -> float:
    return epsilon**2 + (1.0 - epsilon) ** 2


def linear_entropy(rho) -> float:
    """Normalized mixedness (4/3)(1 - Tr rho^2): 0 pure, 1 maximally mixed."""
    return _min1(_max0((4.0 / 3.0) * (1.0 - kernels.purity(as_matrix(rho)))))


def linear_entropy_closed(epsilon: float, gamma: float) -> float:
    """Family closed form (8/3) eps^2 (1-eps)^2 gamma / n^2."""
    n = _norm(epsilon)
    return (8.0 / 3.0) * epsilon**2 * (1.0 - epsilon) ** 2 * gamma / n**2


def negativity(rho) -> float:
    """Twice the magnitude of the most negative partial-transpose eigenvalue."""
    pt = partial_transpose(rho, "second")
    w = kernels.eigvalsh_herm((pt + pt.conj().T) / 2.0)
    return 2.0 * max(0.0, -float(w[0]))


def negativity_closed(epsilon: float, abs_a: float) -> float:
    """Family closed form 2 eps (1-eps) |a| / n."""
    return 2.0 * epsilon * (1.0 - epsilon) * abs_a / _norm(epsilon)


def concurrence_wootters(rho) -> float:
    """Spin-flip concurrence max{0, sqrt(l1)-sqrt(l2)-sqrt(l3)-sqrt(l4)}.

    The l_i are the (descending) eigenvalues of rho.(sy x sy).rho*.(sy x sy),
    conjugation in the computational basis. Their square roots equal the
    singular values of sqrt(rho).(sy x sy).conj(sqrt(rho)), which avoids the
    sqrt-of-noise blowup at zero eigenvalues.
    """
    m = as_matrix(rho)
    s = psd_sqrt(m)
    k = s @ _SY2 @ s.conj()
    roots = np.linalg.svd(k, compute_uv=False)
    return max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))


def concurrence_family(epsilon: float, abs_a):
    """Family closed-form concurrence sqrt(1 - 2 eps^2 (1-eps)^2 (1-|a|^2)/n^2).

    Kept as a separate, clearly labeled quantity: it equals sqrt(Tr rho^2)
    on this family and disagrees with the spin-flip value away from
    epsilon = 1/2 (it returns 1 at |a| = 1 even for product endpoints).
    """
    n = _norm(epsilon)
    rad = 1.0 - 2.0 * epsilon**2 * (1.0 - epsilon) ** 2 * (1.0 - abs_a * abs_a) / n**2
    return np.sqrt(_max0(rad))


def eof(c):
    """Entanglement of formation h((1 + sqrt(1-c^2))/2) for concurrence c."""
    c = np.asarray(c, dtype=float)
    bad = c[~((0.0 <= c) & (c <= 1.0 + 1e-12))]
    if bad.size:
        raise ValueError(f"concurrence must be in [0, 1], got {bad[0]}")
    c = _min1(c)
    return _binary_entropy(0.5 * (1.0 + np.sqrt(_max0(1.0 - c * c))))


def _binary_entropy(x):
    total = 0.0
    for v in (x, 1.0 - x):  # v log2 v is 0 at v <= 0, where log2 sees 1
        pos = v > 0.0
        total = total - np.where(pos, v * np.log2(np.where(pos, v, 1.0)), 0.0)
    return total


def uhlmann_fidelity(rho, sigma) -> float:
    """General fidelity {Tr sqrt(sqrt(rho) sigma sqrt(rho))}^2, in [0, 1]."""
    s = psd_sqrt(as_matrix(rho))
    val = kernels.sqrt_fidelity(s, as_matrix(sigma))
    return min(1.0, val * val)


def bures_distance(rho, sigma) -> float:
    """Fidelity-derived metric sqrt(2 - 2 sqrt(F)), in [0, sqrt(2)]."""
    f = uhlmann_fidelity(rho, sigma)
    return math.sqrt(max(0.0, 2.0 - 2.0 * math.sqrt(f)))


def _assert_pure(sigma_p) -> np.ndarray:
    m = as_matrix(sigma_p)
    purity = float(kernels.purity(m))
    if abs(purity - 1.0) > PURITY_TOL:
        raise InvalidState([f"reference must be pure, Tr sigma^2 = {purity:.6f}"])
    return m


def relative_entropy_exact(sigma_p, rho, tol=DEFAULT_TOL) -> float:
    """-Tr(sigma_p ln rho) in nats for a pure reference sigma_p.

    Computed on the support of rho; raises SupportMismatch (the value is
    +inf) when sigma_p carries weight >= 1e-8 outside that support.
    """
    sp = _assert_pure(sigma_p)
    w, v = hermitian_eig(as_matrix(rho), tol)
    outside, val = _support_entropy(w, v, sp, tol)
    if outside >= SUPPORT_WEIGHT_TOL:
        raise SupportMismatch(
            f"reference weight {float(outside):.3e} outside the state's support")
    return max(0.0, float(val))


def _support_entropy(w, v, sp, tol):
    """(weight of sp outside rho's support, -Tr(sp ln rho) on that support)
    from rho's eigendecomposition w (ascending), v; a leading stack axis is
    carried through. Off-support slots take weight and log 0, so every state
    runs the same length-4 product whatever its rank."""
    weights = np.einsum("...ij,...jk,...ki->...i", kernels._dagger(v), sp, v).real
    on_support = w > tol.psd
    outside = np.where(on_support, 0.0, weights).sum(axis=-1)
    log_w = np.where(on_support, np.log(np.where(on_support, w, 1.0)), 0.0)
    dot = (np.where(on_support, weights, 0.0)[..., None, :] @ log_w[..., :, None])
    return outside, -dot[..., 0, 0]


def relative_entropy_linearized(rho, sigma_p) -> float:
    """First-order relative entropy 1 - Tr(sigma_p rho); never above the exact value."""
    sp = _assert_pure(sigma_p)
    val = 1.0 - float(np.trace(sp @ as_matrix(rho)).real)
    return min(1.0, max(0.0, val))


@dataclass(frozen=True)
class MonotonicResiduals:
    """Residuals of the inter-measure relations on the family."""

    delta12: float      # delta12 - (2/3)(N0^2 - Nt^2)
    concurrence: float  # C_closed - sqrt(1 - (N0^2 - Nt^2)/2)


def monotonic_relations_check(epsilon: float, gamma: float) -> MonotonicResiduals:
    """Both monotonic inter-measure relations at one (epsilon, gamma) point."""
    abs_a = math.sqrt(max(0.0, 1.0 - gamma))
    n0 = negativity_closed(epsilon, 1.0)
    nt = negativity_closed(epsilon, abs_a)
    drop = n0 * n0 - nt * nt
    r1 = linear_entropy_closed(epsilon, gamma) - (2.0 / 3.0) * drop
    r2 = concurrence_family(epsilon, abs_a) - math.sqrt(1.0 - 0.5 * drop)
    return MonotonicResiduals(delta12=r1, concurrence=r2)


@dataclass(frozen=True)
class MeasureRecord:
    """One sweep point: channel coordinates plus every computed measure.

    er_exact is in nats; math.inf encodes a support mismatch. Column names
    of the CSV schema match the field names (er_exact maps to er_exact_nats).
    """

    epsilon: float
    t: float
    gamma: float
    abs_a: float
    delta12: float
    negativity: float
    concurrence_wootters: float
    concurrence_paper: float
    eof: float
    fidelity_pure: float
    e_pure: float
    e_mixed: float
    e_maxmixed: float
    er_exact: float
    er_lin: float

    def violations(self) -> list:
        """Invariant diagnostics: all fields finite (er_exact may be inf),
        measures within their ranges; the record checked as a 1-row table."""
        return violations_at(np.array([astuple(self)], RECORD_DTYPE), 0)


# a sweep table: one row per record, one float64 column per field
RECORD_DTYPE = np.dtype([(f.name, float) for f in fields(MeasureRecord)])


def as_table(columns) -> np.ndarray:
    """Columns (every field name -> an (N,) array) as an (N,) table."""
    table = np.empty(len(columns["epsilon"]), RECORD_DTYPE)
    for name in RECORD_DTYPE.names:
        table[name] = columns[name]
    return table


def _invariant_checks(table):
    # (field, what, mask True on each row that breaks it), in report order
    for name in RECORD_DTYPE.names:
        if name != "er_exact":
            yield name, "is not finite", ~np.isfinite(table[name])
    for name in UNIT_RANGED:
        v = table[name]
        yield name, "outside [0, 1]", ~((-RANGE_SLACK <= v) & (v <= 1.0 + RANGE_SLACK))
    yield "er_exact", "negative", table["er_exact"] < 0


def violation_mask(table) -> np.ndarray:
    """True on each row of table (field name -> (N,) array) that breaks a
    record invariant."""
    return np.logical_or.reduce([bad for _, _, bad in _invariant_checks(table)])


def violations_at(table, k: int) -> list:
    """The invariant diagnostics of row k of a sweep table."""
    return [f"{name} {what}: {float(table[name][k])}"
            for name, what, bad in _invariant_checks(table[k:k + 1]) if bad[0]]


# ------------------------------------------------------------ stacked states


def stacked_measures(rho, sigma_p) -> dict:
    """The state measures of one sweep record for a stack of states rho and
    their pure references sigma_p, both (N, 4, 4): an (N,) array for each of
    delta12, negativity, concurrence_wootters, fidelity_pure, e_maxmixed,
    er_exact and er_lin.

    Each state takes one eigendecomposition, shared by its square root (for
    the concurrence and both fidelities) and the exact relative entropy; the
    concurrence takes one stacked SVD, the partial-transpose spectrum and
    each fidelity one stacked eigvalsh. Every step is the arithmetic of the
    per-state function on a leading axis (the exact relative entropy shares
    its helper, _support_entropy), so each value equals that function's bit
    for bit. The per-state checks (hermiticity defect, PSD
    floor, purity of the reference) run on the whole stack with the same
    tolerances, and the first failing state raises its per-state error.
    """
    rho_dag = kernels._dagger(rho)
    defect = np.abs(rho - rho_dag).max(axis=(-2, -1))
    try:
        s, w, v = kernels.psd_sqrt_with_min((rho + rho_dag) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    failing = ((defect > DEFAULT_TOL.herm) | (w[:, 0] < -DEFAULT_TOL.psd)
               | (np.abs(kernels.purity(sigma_p) - 1.0) > PURITY_TOL))
    for k in np.flatnonzero(failing):  # the per-state checks raise the error
        psd_sqrt(rho[k])
        _assert_pure(sigma_p[k])

    pt = partial_transpose(rho)
    pt_w = kernels.eigvalsh_herm((pt + kernels._dagger(pt)) / 2.0)
    roots = np.linalg.svd(s @ _SY2 @ s.conj(), compute_uv=False)
    f_pure = kernels.sqrt_fidelity(s, sigma_p)
    f_mixed = kernels.sqrt_fidelity(s, maximally_mixed().matrix)
    er_lin = 1.0 - np.trace(sigma_p @ rho, axis1=-2, axis2=-1).real

    outside, er = _support_entropy(w, v, sigma_p, DEFAULT_TOL)
    er_exact = np.where(outside >= SUPPORT_WEIGHT_TOL, math.inf, _max0(er))
    return {
        "delta12": _min1(_max0((4.0 / 3.0) * (1.0 - kernels.purity(rho)))),
        "negativity": 2.0 * _max0(-pt_w[:, 0]),
        "concurrence_wootters": _max0(roots[:, 0] - roots[:, 1] - roots[:, 2]
                                      - roots[:, 3]),
        "fidelity_pure": _min1(f_pure * f_pure),
        "e_maxmixed": 1.0 - np.sqrt(_min1(f_mixed * f_mixed)),
        "er_exact": er_exact,
        "er_lin": _min1(_max0(er_lin)),
    }
