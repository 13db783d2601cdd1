"""Entanglement and mixedness measures.

The spectral pipelines are authoritative. The family closed forms here are
the ones the sweep writes or gates a row on; where a closed form disagrees
with the general definition it is kept as labeled (concurrence_family), and
the tests hold the two against each other rather than reconciling them. The
printed forms that no command runs live with the tests (tests/reference.py).

Each closed form is one numpy function: an array gives a column, a scalar a
numpy scalar, by the same arithmetic (squares as x * x: a numpy scalar's
x**2 goes through pow, which can round differently). Each spectral measure
is one function too: a 4x4 state gives a numpy scalar, an (N, 4, 4) stack an
(N,) array, by the same arithmetic on each matrix. Each reads an arbitrary
state through its checked eigenpairs (psd_eig) under one floor,
kernels._clip_spectrum, and forms no square root of it. stacked_measures
reads the sweep's states through their exact factors rho = UU†
(channel.kraus_factor) instead: the factor's singular values and left
singular vectors give the spectrum and the support basis that the same
helpers read, so the sweep takes no eigendecomposition. The phase-damping
channel has two Kraus operators, so a swept factor has two columns, and one
Jacobi rotation (_jacobi2) takes their singular values in place of a LAPACK
SVD; a factor with another number of columns takes the SVD.
"""

import numpy as np

from . import kernels
from .errors import InvalidState
# psd_sqrt has no caller here: perfbench/test_harness.py traces it through this name
from .matcore import _stack_prefix, as_matrix, partial_transpose, psd_eig, psd_sqrt  # noqa: F401
from .states import _checked_unit, family_delta, family_norm

# weight a pure reference may carry outside the state's support before the
# relative entropy is infinite
SUPPORT_WEIGHT_TOL = 1e-8
PURITY_TOL = 1e-8  # |Tr sigma^2 - 1| accepted for a pure reference

# how far past [0, 1] a record field, or a gate's residual past 0, may lie
RANGE_SLACK = 1e-12

# _jacobi2 reads the smaller rotated column as rounding error, singular
# value 0, where projecting it off the larger leaves less than this share of
# the part projected off
RESIDUAL_REL = 1e-2

_TINY = np.finfo(float).tiny

# sy (x) sy is antidiagonal: (sy (x) sy) @ x is x's rows reversed, times these signs
_SY2_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])


def _max0(x):
    # max(0.0, x) elementwise as Python evaluates it: NaN and -0.0 give 0.0;
    # [()] makes a 0-d result a numpy scalar
    return np.where(x > 0.0, x, 0.0)[()]


def _min1(x):
    # min(1.0, x) elementwise as Python evaluates it
    return np.where(x < 1.0, x, 1.0)[()]


def linear_entropy(rho) -> float:
    """Normalized mixedness (4/3)(1 - Tr rho^2): 0 pure, 1 maximally mixed."""
    return _min1(_max0((4.0 / 3.0) * (1.0 - kernels.purity(as_matrix(rho, stacked=True)))))


def negativity(rho) -> float:
    """Twice the magnitude of the most negative partial-transpose eigenvalue."""
    pt = partial_transpose(rho)
    w = kernels.eigvalsh_herm((pt + kernels._dagger(pt)) / 2.0)
    return 2.0 * _max0(-w[..., 0])


def negativity_closed(epsilon: float, abs_a: float) -> float:
    """Family closed form 2 eps (1-eps) |a| / n."""
    return 2.0 * epsilon * (1.0 - epsilon) * abs_a / family_norm(epsilon)


def concurrence_wootters(rho) -> float:
    """Spin-flip concurrence max{0, sqrt(l1)-sqrt(l2)-sqrt(l3)-sqrt(l4)}.

    The l_i are the (descending) eigenvalues of rho.(sy x sy).rho*.(sy x sy),
    conjugation in the computational basis. Their square roots are the
    singular values of tau = U^T (sy x sy) U for any factor rho = UU†, here
    U = V sqrt(Lambda) from rho's eigenpairs (Wootters, PRL 80, 2245 (1998)).
    The SVD avoids the sqrt-of-noise blowup at the product's zero
    eigenvalues, and tau needs no square root of rho.
    """
    return _concurrence(_eig_factor(*psd_eig(rho)))


def _concurrence(u):
    # the spin-flip concurrence of rho = uu† for any factor u (4 x k): the
    # largest singular value of tau (k x k) less the other k - 1
    tau = _spin_flip(u)
    if tau.shape[-1] == 2:
        roots = _jacobi2(tau, basis=False)
    else:
        roots = np.linalg.svd(tau, compute_uv=False)
    return _max0(roots[..., 0] - roots[..., 1:].sum(axis=-1))


def _jacobi2(x, basis=True):
    """The singular values of x (..., m, 2), descending to rounding, and
    with basis also its left singular vectors (..., m, 2), by one complex
    one-sided Jacobi rotation (Hestenes, J. SIAM 6, 51 (1958)).

    The rotation makes x's two columns orthogonal, the larger first, so
    their norms are the singular values and each column over its norm a
    singular vector. Unlike the eigenvalues of the Gram matrix x†x, the
    rotated columns' norms keep a small singular value's relative accuracy
    (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)); each
    norm is a hypot of moduli, so none underflows where a column is
    ~1e-162. For the basis, the smaller column is projected off the larger
    once more. Where less than RESIDUAL_REL of the part projected off is
    left, the column was rounding error (the columns are parallel to
    working precision), and its singular value and vector are 0. The
    rotation reads x†x, so this holds to rounding for entries between about
    1e-154 and 1e154; below, the results are still finite and raise no
    warning, and above, x†x overflows.
    """
    a, b = x[..., 0], x[..., 1]
    norm2 = np.einsum("...ij,...ij->...j", x.conj(), x).real
    d = norm2[..., 1] - norm2[..., 0]
    h = 2.0 * np.einsum("...i,...i->...", b.conj(), a)
    # the rotation's tangent t = 1 / (|zeta| + hypot(1, zeta)) at zeta = d / |h|,
    # as u = t h / |h| = h / (|d| + hypot(d, |h|)): no zeta * zeta to
    # overflow, |u| <= 1, and u = 0 where b†a = 0. The divisor is held to
    # the smallest normal float, as numpy's complex division takes its
    # reciprocal
    u = h / np.maximum(np.abs(d) + np.hypot(d, np.abs(h)), _TINY)
    c = 1.0 / np.hypot(1.0, np.abs(u))
    # the rotation [[p, -q*], [q, p*]], whose first column takes the larger
    b_larger = d > 0.0
    p = c * np.where(b_larger, u.conj(), 1.0)
    q = c * np.where(b_larger, 1.0, u)
    y1 = p[..., None] * a + q[..., None] * b
    y2 = p.conj()[..., None] * b - q.conj()[..., None] * a
    s1 = _norm(y1)
    if not basis:
        return np.stack([s1, _norm(y2)], axis=-1)
    q1 = _unit(y1, s1)
    along = np.einsum("...i,...i->...", q1.conj(), y2)
    r = y2 - q1 * along[..., None]
    s2 = _norm(r)
    s2 = np.where(s2 >= RESIDUAL_REL * np.abs(along), s2, 0.0)
    return np.stack([q1, _unit(r, s2)], axis=-1), np.stack([s1, s2], axis=-1)


def _norm(v):
    # the 2-norm of each vector along v's last axis, a hypot over the moduli
    return np.hypot.reduce(np.abs(v), axis=-1)


def _unit(v, norm):
    # the vectors along v's last axis over their norms, 0 where a norm is 0;
    # real and imaginary parts divided apart, as numpy's complex division
    # overflows on a subnormal divisor
    out = np.zeros_like(v)
    np.divide(v.view(float), norm[..., None], out=out.view(float), where=norm[..., None] > 0.0)
    return out


def _eig_factor(w, v):
    # U = V sqrt(Lambda), rho = UU†, from rho's checked eigenpairs, w ascending
    return v * np.sqrt(kernels._clip_spectrum(w))[..., None, :]


def _spin_flip(a):
    # tau = a^T (sy x sy) a, whose singular values are Wootters' for any rho = aa†
    return np.swapaxes(a, -1, -2) @ (_SY2_SIGNS[:, None] * a[..., ::-1, :])


def concurrence_family(epsilon, abs_a):
    """Family closed-form concurrence sqrt(1 - 2 eps^2 (1-eps)^2 (1-|a|^2)/n^2),
    elementwise over epsilon and |a|.

    Kept as a separate, clearly labeled quantity: it equals sqrt(Tr rho^2)
    on this family and disagrees with the spin-flip value away from
    epsilon = 1/2 (it returns 1 at |a| = 1 even for product endpoints).
    """
    n = family_norm(epsilon)
    rad = (1.0 - 2.0 * (epsilon * epsilon) * ((1.0 - epsilon) * (1.0 - epsilon))
           * (1.0 - abs_a * abs_a) / (n * n))
    return np.sqrt(_max0(rad))


def eof(c):
    """Entanglement of formation h((1 + sqrt(1-c^2))/2) for concurrence c."""
    return _eof(_checked_unit("concurrence", np.asarray(c, dtype=float), RANGE_SLACK))


def _eof(c):  # eof unchecked: the sweep's invariants judge its concurrence
    c = _min1(c)
    return _binary_entropy(0.5 * (1.0 + np.sqrt(_max0(1.0 - c * c))))


def _binary_entropy(x):
    total = 0.0
    for v in (x, 1.0 - x):  # v log2 v is 0 at v <= 0, where log2 sees 1
        pos = v > 0.0
        total = total - np.where(pos, v * np.log2(np.where(pos, v, 1.0)), 0.0)
    return total


def uhlmann_fidelity(rho, sigma) -> float:
    """General fidelity {Tr sqrt(sqrt(rho) sigma sqrt(rho))}^2, in [0, 1], as
    ||U†W||_1^2 for the factors rho = UU†, sigma = WW† from each state's
    eigenpairs (Uhlmann, Rep. Math. Phys. 9, 273 (1976))."""
    val = _trace_norm(_eig_factor(*psd_eig(rho)), _eig_factor(*psd_eig(sigma)))
    return _min1(val * val)


def _trace_norm(u, b):
    # ||u† b||_1: the root fidelity of rho = uu† and sigma = bb†
    return np.linalg.svd(kernels._dagger(u) @ b, compute_uv=False).sum(-1)


def pure_fidelity(rho, sigma_p) -> float:
    """F(rho, |psi><psi|) = <psi|rho|psi> = sum_i lambda_i |<v_i|psi>|^2 for a
    pure reference sigma_p, from rho's checked eigenpairs under
    kernels._clip_spectrum's floor (Jozsa, J. Mod. Opt. 41, 2315 (1994));
    the Uhlmann fidelity to sigma_p, with no eigensolve of its own."""
    w, v = psd_eig(rho)
    return _pure_fidelity(w, _reference_weights(v, _assert_pure(sigma_p)))


def _reference_weights(v, sp):
    # |<v_i|psi>|^2 = (v^dagger sigma_p v)_ii per orthonormal column v_i
    return (v.conj() * (sp @ v)).sum(axis=-2).real


def _pure_fidelity(w, weights):
    return _min1(_max0((kernels._clip_spectrum(w) * weights).sum(axis=-1)))


def bures_distance(rho, sigma) -> float:
    """Fidelity-derived metric sqrt(2 - 2 sqrt(F)), in [0, sqrt(2)]."""
    return np.sqrt(_max0(2.0 - 2.0 * np.sqrt(uhlmann_fidelity(rho, sigma))))


def _assert_pure(sigma_p) -> np.ndarray:
    m = as_matrix(sigma_p, stacked=True)
    purity = np.ravel(kernels.purity(m))
    bad = np.flatnonzero(np.abs(purity - 1.0) > PURITY_TOL)
    if bad.size:  # the first impure reference names itself
        k = bad[0]
        raise InvalidState([f"{_stack_prefix(m, k)}reference must be pure, "
                            f"Tr sigma^2 = {purity[k]:.6f}"])
    return m


def relative_entropy_exact(sigma_p, rho) -> float:
    """-Tr(sigma_p ln rho) in nats for a pure reference sigma_p.

    Computed on the support of rho, from its checked eigenpairs (psd_eig:
    an indefinite rho raises NotPSD); inf when sigma_p carries weight
    >= SUPPORT_WEIGHT_TOL outside that support.
    """
    sp = _assert_pure(sigma_p)
    w, v = psd_eig(as_matrix(rho))
    return _support_entropy(w, _reference_weights(v, sp))


def _support_entropy(w, weights):
    """-Tr(sp ln rho) from rho's ascending spectrum w on orthonormal vectors
    and sp's weights on them, or inf where sp's weight outside rho's support
    reaches SUPPORT_WEIGHT_TOL; a leading stack axis is carried through.
    The support is what kernels._clip_spectrum keeps. sp is pure, so its
    weight outside is 1 less its weight inside: the vectors may be all of
    rho's eigenvectors or a factor's left singular vectors alone.
    Off-support slots take log 0, so every state runs the same product
    whatever its rank."""
    on_support = kernels._clip_spectrum(w) > 0.0
    inside = np.where(on_support, weights, 0.0)
    log_w = np.where(on_support, np.log(np.where(on_support, w, 1.0)), 0.0)
    dot = inside[..., None, :] @ log_w[..., :, None]
    outside = 1.0 - inside.sum(axis=-1)
    return np.where(outside >= SUPPORT_WEIGHT_TOL, np.inf, _max0(-dot[..., 0, 0]))[()]


def relative_entropy_linearized(rho, sigma_p) -> float:
    """First-order relative entropy 1 - Tr(sigma_p rho); never above the exact value."""
    sp = _assert_pure(sigma_p)
    return _linearized(as_matrix(rho, stacked=True), sp)


def _linearized(rho, sp):
    # 1 - Tr(sp rho) clipped to [0, 1], for a checked pure sp
    return _min1(_max0(1.0 - kernels.trace_dot(sp, rho)))


def relation_residuals(columns) -> dict:
    """Residuals of the paper's inter-measure relations, for columns (field
    name -> a scalar or an (N,) array; a sweep table or one of its rows)
    with epsilon, delta12, negativity, concurrence_paper, e_pure and er_lin.

    N0 = negativity_closed(eps, 1) is the undamped negativity. On the family
    delta12_drop (delta12 = (2/3)(N0^2 - N^2)), concurrence_drop
    (concurrence_paper = sqrt(1 - (N0^2 - N^2)/2)), widetext_purity and
    widetext_concurrence are identities at every epsilon; product_half and
    triangular_half only at epsilon = 1/2. The widetext forms are
    implemented with the inner duplicate prefactor dropped and the spurious
    additive N0 term removed, without which they fail their own
    epsilon = 1/2 reductions. 8/3 is the printed 2d/(d-1) at d = 4.
    """
    d12, neg = columns["delta12"], columns["negativity"]
    c, e, er = columns["concurrence_paper"], columns["e_pure"], columns["er_lin"]
    n0 = negativity_closed(columns["epsilon"], 1.0)
    drop = n0 * n0 - neg * neg
    return {
        "delta12_drop": d12 - (2.0 / 3.0) * drop,
        "concurrence_drop": c - np.sqrt(1.0 - 0.5 * drop),
        "widetext_purity": d12 * n0 * n0 - (8.0 / 3.0) * (
            er * (e - 1.0) + 0.5 * n0 * (er * (1.0 + n0) + (e - 1.0) * (1.0 - n0))),
        "widetext_concurrence": c * c * n0 * n0 - (
            (e - 1.0) * (e - 1.0) + er * er + n0 * n0 * (e - er)),
        "product_half": d12 - (8.0 / 3.0) * e * er,
        "triangular_half": c * c - (e * e + er * er),
    }


# the field each relation's diagnostic names: its left-hand side
_RELATION_FIELDS = {"delta12_drop": "delta12", "concurrence_drop": "concurrence_paper",
                    "widetext_purity": "delta12", "widetext_concurrence": "concurrence_paper",
                    "product_half": "delta12", "triangular_half": "concurrence_paper"}


# a sweep table: one row per record (one sweep point), one float64 column
# per field. er_exact is in nats and inf on a support mismatch; the CSV
# names it er_exact_nats
RECORD_DTYPE = np.dtype([(name, float) for name in (
    "epsilon", "t", "gamma", "abs_a", "delta12", "negativity", "concurrence_wootters",
    "concurrence_paper", "eof", "fidelity_pure", "e_pure", "e_mixed", "e_maxmixed",
    "er_exact", "er_lin")])


def as_table(columns) -> np.ndarray:
    """Columns (every field name -> an (N,) array) as an (N,) table;
    scalar columns give one row."""
    table = np.empty(np.size(columns["epsilon"]), RECORD_DTYPE)
    for name in RECORD_DTYPE.names:
        table[name] = columns[name]
    return table


def _invariant_checks(table):
    # (field, what, mask True on each row that breaks it), in report order: one
    # value check per field (t finite, er_exact not nan or negative as +inf marks
    # a support mismatch, the rest in [0, 1]), then the cross-route checks
    in_range, unit = {}, {}
    for name in RECORD_DTYPE.names:
        v = table[name]
        if name == "t":
            yield name, "is not finite", ~np.isfinite(v)
        elif name == "er_exact":
            yield name, "is nan or negative", ~(v >= 0)
        else:
            in_range[name] = ok = (-RANGE_SLACK <= v) & (v <= 1.0 + RANGE_SLACK)
            unit[name] = np.where(ok, v, 0.0)
            yield name, "outside [0, 1]", ~ok
    for name, what, reads, residual in _cross_route_checks(unit, table["er_exact"]):
        bad = residual > RANGE_SLACK  # on the rows where every field read is in range
        for n in (name, *reads):
            bad &= in_range[n]
        yield name, what, bad


def _cross_route_checks(v, er_exact):
    # (field, what, the other fields it reads, residual): |lhs - rhs| of an
    # identity between independent routes, lhs - bound of a bound every family
    # state obeys; v has 0 where a field is out of range, so nothing overflows
    eps, g, abs_a, c = v["epsilon"], v["gamma"], v["abs_a"], v["concurrence_wootters"]
    yield ("fidelity_pure", "differs from 1 - er_lin", ("er_lin",),  # eigensolve vs trace
           np.abs(v["fidelity_pure"] - (1.0 - v["er_lin"])))
    yield ("negativity", "differs from concurrence_wootters", ("concurrence_wootters",),
           np.abs(v["negativity"] - c))  # PT spectrum vs SVD
    yield ("concurrence_wootters", "differs from 2 eps (1-eps) |a| / n", ("epsilon", "abs_a"),
           np.abs(c - negativity_closed(eps, abs_a)))
    yield ("concurrence_wootters", "breaks C^2 + (3/2) delta12 <= 1", ("delta12",),
           c * c + 1.5 * v["delta12"] - 1.0)
    yield "eof", "exceeds concurrence_wootters", ("concurrence_wootters",), v["eof"] - c
    yield "er_lin", "exceeds er_exact", (), v["er_lin"] - er_exact  # er_exact = +inf: -inf
    # the paper's relations; the _half ones at epsilon = 1/2 only
    names = ("epsilon", "delta12", "negativity", "concurrence_paper", "e_pure", "er_lin")
    res = relation_residuals(v)
    for relation, name in _RELATION_FIELDS.items():
        at = eps == 0.5 if relation.endswith("_half") else True
        yield name, f"breaks the {relation} relation", names, at * np.abs(res[relation])
    # the family's closed forms of columns no other check pins
    yield "gamma", "differs from 1 - |a|^2", ("abs_a",), np.abs(abs_a * abs_a + g - 1.0)
    # with m = 2 eps (1-eps): Tr sqrt(rho) = sqrt(1 + 2 sqrt(det)) on the 2x2
    # outer block, det = m^2 gamma / (2n)^2, which shares no arithmetic with the
    # factor's singular values
    e = 1.0 - np.sqrt(1.0 + 2.0 * eps * (1.0 - eps) * np.sqrt(_max0(g)) / family_norm(eps)) / 2.0
    yield ("e_maxmixed", "differs from 1 - sqrt(1 + 2 eps (1-eps) sqrt(gamma) / n) / 2",
           ("epsilon", "gamma"), np.abs(v["e_maxmixed"] - e))
    delta = _min1(family_delta(eps, _max0(g)))
    yield ("eof", "differs from h((1 + sqrt((1-2eps)^2 + 4 eps^2 (1-eps)^2 gamma) / n) / 2)",
           ("epsilon", "gamma"), np.abs(v["eof"] - _binary_entropy(0.5 * (1.0 + delta))))


def violation_mask(table) -> np.ndarray:
    """True on each row of table (field name -> (N,) array) that breaks a
    record invariant."""
    return np.logical_or.reduce([bad for _, _, bad in _invariant_checks(table)])


def violations_at(table, k: int) -> list:
    """The invariant diagnostics of row k of a sweep table: each field's
    value check, the cross-route identities and the paper's relations."""
    return [f"{name} {what}: {float(table[name][k])}"
            for name, what, bad in _invariant_checks(table[k:k + 1]) if bad[0]]


# ------------------------------------------------------------ stacked states


def stacked_measures(u, sigma_p) -> dict:
    """The state measures of sweep records from the states' factors
    rho = UU†, u (N, 4, k), and their pure references sigma_p (N, 4, 4): an
    (N,) array for each of delta12, negativity, concurrence_wootters,
    fidelity_pure, e_maxmixed, er_exact and er_lin; numpy scalars, by the
    same arithmetic, for one (4, k) factor and one reference.

    rho = UU† feeds the purity, the partial transpose and Tr(sigma_p rho),
    and U the concurrence. U's singular values s and left singular vectors
    give rho's spectrum s^2 and support basis, on which sigma_p's weights
    give the fidelity to sigma_p and the exact relative entropy under the
    eigen route's floor. sqrt(rho) (I/4) sqrt(rho) = rho/4, so e_maxmixed =
    1 - sum(s)/2 from the unclipped singular values, whose error is ~eps
    where an eigenvalue's root has ~sqrt(eps). For k = 2 (a swept state)
    one Jacobi rotation of U and one of the 2x2 tau give the singular
    values, and a stack takes one eigvalsh and no svd; for another k, U and
    tau each take one svd. The first impure reference raises.
    """
    u = np.asarray(u, dtype=complex)
    rho = u @ kernels._dagger(u)
    sp = _assert_pure(sigma_p)
    if u.shape[-1] == 2:
        basis, s = _jacobi2(u)
    else:
        basis, s, _ = np.linalg.svd(u, full_matrices=False)
    w = (s * s)[..., ::-1]  # ascending, as the eigen route's helpers read it
    weights = _reference_weights(basis[..., ::-1], sp)
    return {
        "delta12": linear_entropy(rho),
        "negativity": negativity(rho),
        "concurrence_wootters": _concurrence(u),
        "fidelity_pure": _pure_fidelity(w, weights),
        "e_maxmixed": 1.0 - s.sum(axis=-1) / 2.0,
        "er_exact": _support_entropy(w, weights),
        "er_lin": _linearized(rho, sp),
    }
