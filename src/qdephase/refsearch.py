"""Distance-based entanglement measures: the family's distance to its
dephasing floor, the closest separable state in closed form, a numerical
Bures-distance minimization over the separable set, and the sweep's
ordering check.

The closest separable state (CSS) of any two-qubit state is built in closed
form (css_closed, which the css command runs) from Wootters' optimal
decomposition; on the dephasing family it is simpler still
(css_family_columns, which sweep uses). The numerical search
(closest_separable_bures) serves the library and the tests, where it is the
independent check on both. css_closed and the search read rho through one
factor rho = UU†, U = V sqrt(Lambda) of its checked eigenpairs: no sqrt(rho).

A two-qubit state of zero concurrence is a mixture of at most four product
states (Wootters, PRL 80, 2245 (1998)), so the search parametrizes the
separable set exactly, with no constraint: sigma = ZZ†/Tr(ZZ†), column k of
Z a product vector a_k (x) b_k (32 reals). The objective 1 - sqrt(F) comes
with its analytic gradient (kernels.css_objective) and is minimized by
L-BFGS-B from seeded random restarts; nothing is penalized or repaired.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .measures import RANGE_SLACK, _eig_factor, _max0, _min1, _spin_flip, _trace_norm
from .matcore import as_matrix, psd_eig
from .states import _checked_unit, family_delta, family_norm, outer_block, validate

PT_FEASIBILITY = -1e-7     # accepted partial-transpose floor for sigma*
GTOL = 1e-9                # L-BFGS-B stop on the largest gradient component
DELTA_MATCH_TOL = 1e-9     # mixedness matching window for cross-eps pairs
WITNESS_GAP = 1e-9         # e_mixed - N beyond which a matched pair is a witness
RESTARTS = 8               # seeded random starts of the general search
MAX_ITERS = 5000           # L-BFGS-B iterations per start
TOL = 1e-10                # objective accuracy the search aims at


@dataclass(frozen=True)
class CssResult:
    """Closest separable state sigma* of a state: e_value = 1 - sqrt(F) at
    sigma*, and the search's effort (0 evaluations for a closed form)."""

    sigma_star: np.ndarray
    e_value: float
    iterations: int
    converged: bool
    pt_min_eig: float
    nfev: int


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first use: only the general
    search needs scipy, an optional extra, and its import outweighs the rest
    of the program's."""
    try:
        from scipy.optimize import minimize as scipy_minimize
    except ImportError as exc:
        raise ImportError("the general CSS search needs scipy: "
                          "pip install 'qdephase[search]'") from exc
    return scipy_minimize(*args, **kwargs)


def closest_separable_bures(rho) -> CssResult:
    """Minimize half the squared Bures distance from rho over separable states.

    Each of RESTARTS random starts (seed 0) runs L-BFGS-B once, with the
    analytic gradient, over mixtures of four product states; the best run is
    the answer. Its sigma* is separable by construction, and pt_min_eig
    reports that to rounding. It is converged when the partial-transpose
    floor passes PT_FEASIBILITY and the best run reported success or the two
    best runs agree in value. e_value is the best run's objective value, and
    nfev sums the objective evaluations of every run.
    """
    u = _eig_factor(*psd_eig(as_matrix(rho)))
    starts = np.random.default_rng(0).standard_normal((RESTARTS, 32)) * 0.5

    iterations = nfev = 0
    runs = []
    for x0 in starts:
        # L-BFGS-B stops once a single iteration lowers f by less than ftol
        # (relative); along the shallow valleys of the fidelity that happens
        # well before the value is accurate to TOL, hence the extra 1e-2
        res = minimize(kernels.css_objective, x0, args=(u,), jac=True,
                       method="L-BFGS-B",
                       options=dict(maxiter=MAX_ITERS, maxfun=4 * MAX_ITERS,
                                    ftol=1e-2 * TOL, gtol=GTOL))
        iterations += int(res.nit)
        nfev += int(res.nfev)
        runs.append((float(res.fun), bool(res.success), res.x))
    runs.sort(key=lambda run: run[0])
    e_value, success, x = runs[0]
    sigma = kernels.sigma_from_params(x)
    if sigma is None:
        raise RuntimeError("every restart degenerated; cannot build a state")
    ptmin = kernels.pt_min_eig(sigma)
    agreed = len(runs) >= 2 and runs[1][0] - runs[0][0] <= max(100 * TOL, 1e-8)
    return CssResult(sigma_star=validate(sigma),
                     e_value=min(1.0, max(0.0, e_value)),
                     iterations=iterations,
                     converged=bool(ptmin >= PT_FEASIBILITY) and (success or agreed),
                     pt_min_eig=ptmin,
                     nfev=nfev)


def _takagi(tau):
    """Takagi factors of a complex symmetric 4x4 tau = Q diag(lam) Q^T: lam
    descending, Q unitary.

    With tau = a + ib, the real symmetric [[a, b], [b, -a]] has eigenvalues
    +-lam, and an eigenvector (x; y) at +lam gives a Takagi vector x + iy.
    Where lam repeats at 0 those vectors need not be orthogonal, so the QR
    factor, with each column's phase restored from R's diagonal, completes Q
    to a unitary without touching the columns at lam > 0.
    """
    a, b = tau.real, tau.imag
    w, v = kernels.eigh_herm(np.block([[a, b], [b, -a]]))
    q, r = np.linalg.qr(v[:4, :3:-1] + 1j * v[4:, :3:-1])
    return w[:3:-1], q * np.exp(1j * np.angle(np.diag(r)))


def _zero_diagonal(a):
    """A real orthogonal O with diag(O a O^T) = 0, for a traceless real
    symmetric 4x4 a. Each Givens rotation, in the plane of the largest and
    the smallest diagonal entry, takes the largest to 0, so three suffice."""
    o = np.eye(4)
    for _ in range(3):
        d = np.diag(a)
        i, j = int(np.argmax(d)), int(np.argmin(d))
        if not d[i] > 0.0 > d[j]:
            break
        # t = tan(theta) solves d_i + 2 a_ij t + d_j t^2 = 0, as the root
        # that is free of cancellation
        b = a[i, j]
        t = d[i] / -(b + math.copysign(math.sqrt(b * b - d[i] * d[j]), b))
        cos = 1.0 / math.sqrt(1.0 + t * t)
        g = np.eye(4)
        g[i, i] = g[j, j] = cos
        g[i, j], g[j, i] = t * cos, -t * cos
        a, o = g @ a @ g.T, g @ o
    return o


def wootters_decomposition(u):
    """Wootters' optimal decomposition of rho = uu†, for any factor u such as
    sqrt(rho) or V sqrt(Lambda) (Wootters, PRL 80, 2245 (1998)): (z, c) with
    rho = z z† and every column z_j of z, once normalized, of concurrence c,
    the state's concurrence. For c = 0 it is (None, 0.0).

    tau = u† (sy x sy) conj(u), Takagi-factored as Q L Q^T, turns the
    columns of X = u Q into a decomposition whose spin-flip overlaps form
    diag(L). Y = X diag(1, i, i, i) makes them diag(l1, -l2, -l3, -l4), of
    trace c; a real rotation Z = Y O^T that zeros the diagonal of
    A = diag(l1, -l2, -l3, -l4) - c Re(Y†Y) gives each z_j the overlap
    c |z_j|^2.
    """
    lam, q = _takagi(_spin_flip(u).conj())
    c = lam[0] - lam[1] - lam[2] - lam[3]
    if not c > 0.0:
        return None, 0.0
    y = u @ q * np.array([1.0, 1j, 1j, 1j])
    a = np.diag(lam * np.array([1.0, -1.0, -1.0, -1.0])) - c * (y.conj().T @ y).real
    return y @ _zero_diagonal(a).T, float(c)


def css_closed(rho) -> CssResult:
    """Closest separable state of any two-qubit state, without a search
    (Streltsov, Kampermann & Bruss, NJP 12, 123004 (2010)).

    A separable rho is its own sigma*. Otherwise each member z_j of the
    Wootters decomposition is replaced by its top Schmidt pair u_j (x) v_j:
    sigma* = sum_j |z_j|^2 |u_j v_j><u_j v_j| mixes product states, so it is
    separable, and the strong concavity of the root fidelity gives
    sqrt(F(rho, sigma*)) >= sqrt((1 + sqrt(1 - C^2))/2), the largest
    fidelity any separable state reaches (Wei & Goldbart, PRA 68, 042307
    (2003)). e_value is taken at the sigma* returned, as the search's is: for
    sigma* = BB†, 1 - ||U†B||_1 (Uhlmann, Rep. Math. Phys. 9, 273 (1976)).
    """
    m = as_matrix(rho)
    u = _eig_factor(*psd_eig(m))
    z, _ = wootters_decomposition(u)
    if z is None:
        sigma, e_value = m, 0.0
    else:
        su, _, svh = np.linalg.svd(z.T.reshape(4, 2, 2))
        # column j of b: |z_j| u_j (x) v_j
        b = (su[:, :, 0, None] * svh[:, None, 0, :]).reshape(4, 4).T
        b = b * np.linalg.norm(z, axis=0)
        sigma = b @ b.conj().T
        sigma = (sigma + sigma.conj().T) / 2.0
        e_value = 1.0 - float(_trace_norm(u, b))
    return CssResult(sigma_star=validate(sigma), e_value=min(1.0, max(0.0, e_value)),
                     iterations=0, converged=True,
                     pt_min_eig=float(kernels.pt_min_eig(sigma)), nfev=0)


def mixed_ref_measure_family(epsilon, abs_a, gamma, ntilde: float, phase=0.0):
    """General-epsilon distance to the family's own dephasing floor, for the
    state at corner factor |a| and damping gamma = 1 - |a|^2; elementwise
    over epsilon, |a|, gamma and phase.

    The reference keeps the family populations and damps the corner by
    e^{-2*ntilde}. At epsilon = 1/2 it is exactly the printed
    maximally-entangled form (tests/reference.py's mixed_ref_measure).
    gamma is read as given, not as 1 - |a|^2, which cancels to ~eps
    absolute where gamma is small: near t = 0 and each revival.
    """
    w = epsilon * (1.0 - epsilon) / family_norm(epsilon)
    x = np.exp(-2.0 * ntilde)
    fid = (1.0 - 2.0 * w * w
           + 2.0 * w * w * abs_a * x * np.cos(phase)
           + 2.0 * w * w * np.sqrt(_max0(gamma * (1.0 - x * x))))
    return 1.0 - np.sqrt(_min1(_max0(fid)))


def css_family_columns(epsilon, gamma):
    """Closest separable states of the family states at damping gamma, in
    closed form: the sigma* stack and the e_value and pt_min_eig columns,
    for arrays epsilon and gamma; the first epsilon outside [0, 1] raises,
    then the first gamma.

    For two qubits the largest fidelity to a separable state is 1 - E_G with
    E_G = (1 - sqrt(1 - C^2))/2 (Streltsov, Kampermann & Bruss, NJP 12,
    123004 (2010); Wei & Goldbart, PRA 68, 042307 (2003)), with
    sqrt(1 - C^2) from states.family_delta. The optimum is attained at the
    diagonal sigma* = diag(u, 0, 0, 1 - u): a local-phase twirl takes any
    separable sigma to X form, and a corner in sigma gains less fidelity
    than the middle-block trace it needs costs.
    """
    epsilon, gamma = np.broadcast_arrays(_checked_unit("epsilon", epsilon),
                                         _checked_unit("gamma", gamma))
    n = family_norm(epsilon)
    delta = family_delta(epsilon, gamma)
    # Delta = 0 only where 2 eps - 1 = 0, and there u = 1/2
    split = (2.0 * epsilon - 1.0) / (n * np.where(delta > 0.0, delta, 1.0))
    u = _min1(_max0(0.5 * (1.0 + split)))
    sigma = outer_block(u, 1.0 - u, np.zeros_like(u))
    return sigma, 1.0 - np.sqrt((1.0 + delta) / 2.0), kernels.pt_min_eig(sigma)


def _matched_rows(x, d):
    """Index of the row of d nearest to each (finite) value of x, the lowest
    of equally near rows as min(key=|d - x|) picks it; -1 beyond
    DELTA_MATCH_TOL. Equally near rows are a run of d's sorted distinct values
    (several where x - d rounds alike for them, x near zero), walked outwards.
    """
    vals, first = np.unique(d, return_index=True)  # first: lowest row per value
    vals = np.concatenate(([-np.inf], vals, [np.inf]))  # sentinels, never nearest
    first = np.concatenate(([len(d)], first, [len(d)]))
    lo = np.searchsorted(vals, x) - 1
    hi = lo + 1
    dist = np.minimum(x - vals[lo], vals[hi] - x)
    best = np.full(len(x), len(d))
    while True:
        lo = np.where(x - vals[lo] == dist, lo, 0)  # off the run: park on a sentinel
        hi = np.where(vals[hi] - x == dist, hi, -1)
        if not ((lo > 0) | (hi > 0)).any():
            return np.where(dist <= DELTA_MATCH_TOL, best, -1)
        best = np.minimum(best, np.minimum(first[lo], first[hi]))
        lo, hi = lo - 1, hi + 1


def _first_row(pairs, hit):
    """The first row of pairs where hit is True, as a list of floats, or None."""
    hits = np.flatnonzero(hit)
    return pairs[hits[0]].tolist() if hits.size else None


def ordering_check(table) -> dict:
    """Check the per-epsilon ordering e_mixed <= N <= e_pure <= C_closed and
    hunt cross-epsilon pairs at matched mixedness that break any fixed order
    between e_mixed and N; return the verdict as the sweep summary prints it.

    table is a sweep table (measures.RECORD_DTYPE rows), grouped by epsilon
    here with a stable sort, which an epsilon-ascending table (a sweep's)
    skips. violations lists [epsilon, t, label], epsilon ascending, then in
    row and check order. A witness is [eps1, t1, eps2, t2, gap]: the first
    matched row, over the ordered epsilon pairs, with its gap
    e_mixed(eps1, t1) - N(eps2, t2) above WITNESS_GAP (witness_mixed_above)
    or below -WITNESS_GAP (witness_mixed_below), or None. no_global_order is
    True when both witnesses exist.
    """
    orders = (("e_mixed", "negativity", "e_mixed > negativity"),
              ("negativity", "e_pure", "negativity > e_pure"),
              ("e_pure", "concurrence_paper", "e_pure > concurrence"))
    eps = table["epsilon"]
    rows = table if (eps[1:] >= eps[:-1]).all() else table[np.argsort(eps, kind="stable")]
    eps, t, d12 = rows["epsilon"], rows["t"], rows["delta12"]
    broken = np.column_stack([rows[lo] > rows[hi] + RANGE_SLACK for lo, hi, _ in orders])
    violations = [[float(eps[k]), float(t[k]), orders[j][2]]
                  for k, j in zip(*np.nonzero(broken))]

    _, starts = np.unique(eps, return_index=True)
    groups = [slice(a, b) for a, b in zip(starts, [*starts[1:], len(rows)])]
    above = below = None
    for g1, g2 in itertools.permutations(groups, 2):
        match = _matched_rows(d12[g1], d12[g2])
        k1 = g1.start + np.flatnonzero(match >= 0)
        k2 = g2.start + match[match >= 0]
        gap = rows["e_mixed"][k1] - rows["negativity"][k2]
        pairs = np.column_stack([eps[k1], t[k1], eps[k2], t[k2], gap])
        above = above or _first_row(pairs, gap > WITNESS_GAP)
        below = below or _first_row(pairs, gap < -WITNESS_GAP)
        if above and below:
            break
    return {"violations": violations,
            "witness_mixed_above": above, "witness_mixed_below": below,
            "no_global_order": above is not None and below is not None}
