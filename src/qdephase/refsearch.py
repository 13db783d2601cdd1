"""Distance-based entanglement measures: closed-form reference evaluations
and a numerical Bures-distance minimization over the separable (PPT) set.

On the dephasing family the closest separable state is known in closed form
(css_family), which is what sweep uses. The numerical search
(closest_separable_bures) serves arbitrary states.

PPT is exact for two qubits, so the feasible set is parametrized as
sigma = LL†/Tr(LL†) (16 reals) with a smooth quadratic penalty on the
negative part of the partial-transpose spectrum. The penalized objective
comes with its analytic gradient (kernels.css_objective) and is minimized by
L-BFGS-B from deterministic restarts. The best restarts are then polished up
a warm-started ladder of ever stiffer penalties, so the returned state meets
the feasibility gate without any repair step.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .measures import (MeasureRecord, _max0, _min1, negativity_closed,
                       relative_entropy_linearized)
from .matcore import as_matrix, psd_sqrt
from .states import TwoQubitState, validate

PT_FEASIBILITY = -1e-7     # accepted partial-transpose floor for sigma*
POLISH_RUNGS = 6           # stage-two ladder: penalty x10 per rung, 1e6 at the top
GTOL = 1e-9                # L-BFGS-B stop on the largest gradient component
POLISH_CANDIDATES = 2      # how many stage-one leaders get the stiff polish
ORDER_TOL = 1e-12          # pointwise ordering slack
DELTA_MATCH_TOL = 1e-9     # mixedness matching window for cross-eps pairs


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 5000
    restarts: int = 8
    penalty_weight: float = 1e3
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class CssResult:
    """Closest-separable-state search outcome."""

    sigma_star: TwoQubitState
    e_value: float
    iterations: int
    converged: bool
    pt_min_eig: float
    nfev: int


def _params_from_matrix(m: np.ndarray) -> np.ndarray:
    """Inverse of kernels.sigma_from_params via a jittered Cholesky factor."""
    herm = (m + m.conj().T) / 2.0
    return kernels.params_from_factor(np.linalg.cholesky(herm + 1e-10 * np.eye(4)))


def _starting_points(rho: np.ndarray, cfg: OptimizerConfig) -> list:
    """Deterministic seeds: the state itself, its dephased diagonal, then
    seeded random draws."""
    rng = np.random.default_rng(cfg.seed)
    starts = [_params_from_matrix(rho),
              _params_from_matrix(np.diag(np.diag(rho)))]
    while len(starts) < cfg.restarts:
        starts.append(rng.standard_normal(16) * 0.5)
    return starts[: cfg.restarts]


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first use: only the general
    search needs scipy, and its import outweighs the rest of the program's."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def _minimize(x0, sqrt_rho, weight, cfg: OptimizerConfig):
    """One L-BFGS-B run on the penalized objective at one penalty weight."""
    # L-BFGS-B stops once a single iteration lowers f by less than ftol
    # (relative); along the shallow valleys of the fidelity that happens
    # well before the value is accurate to tol, hence the extra 1e-2
    return minimize(kernels.css_objective, x0, args=(sqrt_rho, weight), jac=True,
                    method="L-BFGS-B",
                    options=dict(maxiter=cfg.max_iters, maxfun=4 * cfg.max_iters,
                                 ftol=1e-2 * cfg.tol, gtol=GTOL))


def closest_separable_bures(rho, cfg: OptimizerConfig = OptimizerConfig()) -> CssResult:
    """Minimize half the squared Bures distance from rho over PPT states.

    Every restart runs L-BFGS-B with the analytic gradient at the configured
    penalty weight. The POLISH_CANDIDATES best are then polished: L-BFGS-B
    again, warm-started up a ladder of penalties ten times stiffer per rung,
    ending 1e6 times stiffer after POLISH_RUNGS rungs, which parks the
    partial-transpose floor at the 1e-10 scale. A single jump to the final
    weight instead throws L-BFGS-B into the interior, where it stalls short
    of the boundary optimum.

    The result is the best polished restart passing the -1e-7 feasibility
    gate; an infeasible-only outcome is returned flagged as not converged
    rather than repaired. It is converged when the last minimizer run of its
    ladder reported success or two feasible polished restarts agree in
    value. nfev sums the objective evaluations of every minimizer run.
    """
    m = as_matrix(rho)
    sqrt_rho = psd_sqrt(m)
    weight = cfg.penalty_weight

    iterations = nfev = 0
    stage_one = []
    for idx, x0 in enumerate(_starting_points(m, cfg)):
        res = _minimize(x0, sqrt_rho, weight, cfg)
        iterations += int(res.nit)
        nfev += int(res.nfev)
        stage_one.append((float(res.fun), idx, res.x))
    stage_one.sort(key=lambda s: (s[0], s[1]))

    best = None  # (e, order, x, ptmin, success)
    best_any = None
    feasible_values = []
    for order, (_, _, x1) in enumerate(stage_one):
        if order >= POLISH_CANDIDATES and best is not None:
            break
        x = x1
        for rung in range(1, POLISH_RUNGS + 1):
            polish = _minimize(x, sqrt_rho, weight * 10.0**rung, cfg)
            iterations += int(polish.nit)
            nfev += int(polish.nfev)
            x = polish.x
        sigma = kernels.sigma_from_params(x)
        if sigma is None:
            continue
        ptmin = kernels.pt_min_eig(sigma)
        e_raw = 1.0 - kernels.sqrt_fidelity(sqrt_rho, sigma)
        entry = (e_raw, order, x, ptmin, bool(polish.success))
        if best_any is None or e_raw < best_any[0]:
            best_any = entry
        if ptmin >= PT_FEASIBILITY:
            feasible_values.append(e_raw)
            if best is None or e_raw < best[0]:
                best = entry
    feasible = best is not None
    chosen = best if feasible else best_any
    if chosen is None:
        raise RuntimeError("every restart degenerated; cannot build a state")
    e_raw, _, x, ptmin, success = chosen
    # convergence: the minimizer said so, or independent polished restarts
    # landed on the same value
    feasible_values.sort()
    agreed = (len(feasible_values) >= 2
              and feasible_values[1] - feasible_values[0] <= max(100 * cfg.tol, 1e-8))
    sigma = kernels.sigma_from_params(x)
    return CssResult(sigma_star=validate(sigma),
                     e_value=min(1.0, max(0.0, e_raw)),
                     iterations=iterations,
                     converged=feasible and (success or agreed),
                     pt_min_eig=ptmin,
                     nfev=nfev)


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


def mixed_ref_measure_family(epsilon: float, abs_a, ntilde: float, phase=0.0):
    """General-epsilon distance to the family's own dephasing floor.

    The reference keeps the family populations and damps the corner by
    e^{-2*ntilde}; at epsilon = 1/2 this is exactly mixed_ref_measure.
    """
    n = epsilon**2 + (1.0 - epsilon) ** 2
    w = epsilon * (1.0 - epsilon) / n
    x = np.exp(-2.0 * ntilde)
    fid = (1.0 - 2.0 * w * w
           + 2.0 * w * w * abs_a * x * np.cos(phase)
           + 2.0 * w * w * np.sqrt(_max0((1.0 - abs_a * abs_a) * (1.0 - x * x))))
    return 1.0 - np.sqrt(_min1(_max0(fid)))


def css_family(epsilon: float, gamma: float) -> CssResult:
    """Closest separable state of the family state at damping gamma, in
    closed form.

    For two qubits the largest fidelity to a separable state is 1 - E_G with
    E_G = (1 - sqrt(1 - C^2))/2 (Streltsov, Kampermann & Bruss, NJP 12,
    123004 (2010); Wei & Goldbart, PRA 68, 042307 (2003)). On the family
    1 - C^2 = ((1 - 2 eps)^2 + m^2 gamma)/n^2 with n = eps^2 + (1 - eps)^2
    and m = 2 eps (1 - eps), which keeps 1 - C^2 free of cancellation as
    C -> 1. The optimum is attained at the diagonal sigma* = diag(u, 0, 0,
    1 - u): a local-phase twirl takes any separable sigma to X form, and a
    corner in sigma gains less fidelity than the middle-block trace it
    needs costs.
    """
    if not 0.0 <= epsilon <= 1.0 or not 0.0 <= gamma <= 1.0:
        raise ValueError(f"need epsilon, gamma in [0, 1], got {epsilon}, {gamma}")
    n = epsilon**2 + (1.0 - epsilon) ** 2
    m = 2.0 * epsilon * (1.0 - epsilon)
    delta = math.sqrt((1.0 - 2.0 * epsilon) ** 2 + m * m * gamma) / n
    u = 0.5
    if delta > 0.0:
        u = min(1.0, max(0.0, 0.5 * (1.0 + (2.0 * epsilon - 1.0) / (n * delta))))
    sigma = validate(np.diag([u, 0.0, 0.0, 1.0 - u]).astype(complex))
    return CssResult(sigma_star=sigma,
                     e_value=1.0 - math.sqrt((1.0 + delta) / 2.0),
                     iterations=0,
                     converged=True,
                     pt_min_eig=kernels.pt_min_eig(sigma.matrix),
                     nfev=0)


def maxmixed_fidelity_closed(abs_a: float) -> float:
    """Fidelity to I/4 in its printed closed form (1/4)[sqrt(1-|a|)+sqrt(1+|a|)]^2.

    Documented discrepancy: this is twice the general Uhlmann value (1/2
    versus 1/4 at |a| = 1); kept verbatim as the reproduction target.
    """
    return 0.25 * (math.sqrt(1.0 - abs_a) + math.sqrt(1.0 + abs_a)) ** 2


def maxmixed_measure(abs_a: float) -> float:
    """Closed-form measure 1 - (1/2)[sqrt(1-|a|) + sqrt(1+|a|)] against I/4."""
    return 1.0 - 0.5 * (math.sqrt(1.0 - abs_a) + math.sqrt(1.0 + abs_a))


def pure_ref_measure(rho, sigma_p) -> float:
    """Measure against a pure reference: Tr(rho sigma_p), equal to the fidelity
    and, exactly, to one minus the linearized relative entropy."""
    return 1.0 - relative_entropy_linearized(rho, sigma_p)


def pure_ref_measure_family(epsilon: float, abs_a: float) -> float:
    """Family closed form 1 - 2 eps^2 (1-eps)^2 (1-|a|)/n^2."""
    n = epsilon**2 + (1.0 - epsilon) ** 2
    return 1.0 - 2.0 * epsilon**2 * (1.0 - epsilon) ** 2 * (1.0 - abs_a) / n**2


@dataclass(frozen=True)
class RelationResiduals:
    """Residuals of the closed-form consistency relations at one sweep point.

    product_half and triangular_half are identities only at epsilon = 1/2;
    the two widetext residuals are identities for every epsilon. The widetext
    forms are implemented with the inner duplicate prefactor dropped and the
    spurious additive N0 term removed, without which they fail their own
    epsilon = 1/2 reductions.
    """

    product_half: float
    triangular_half: float
    widetext_purity: float
    widetext_concurrence: float


def relation_residuals(record: MeasureRecord, d: int = 4) -> RelationResiduals:
    """Evaluate the inter-measure relations on one record's closed-form fields."""
    coef = 2.0 * d / (d - 1.0)
    e = record.e_pure
    er = record.er_lin
    c2 = record.concurrence_paper**2
    n0 = negativity_closed(record.epsilon, 1.0)
    product_half = record.delta12 - coef * e * er
    triangular_half = c2 - (e * e + er * er)
    widetext_purity = record.delta12 * n0 * n0 - coef * (
        er * (e - 1.0) + 0.5 * n0 * (er * (1.0 + n0) + (e - 1.0) * (1.0 - n0)))
    widetext_concurrence = c2 * n0 * n0 - (
        (e - 1.0) ** 2 + er * er + n0 * n0 * (e - er))
    return RelationResiduals(product_half, triangular_half,
                             widetext_purity, widetext_concurrence)


@dataclass
class OrderingReport:
    """Pointwise ordering verdict per epsilon plus the cross-epsilon witnesses."""

    violations: list
    max_delta12: float
    witness_mixed_above: tuple | None
    witness_mixed_below: tuple | None

    @property
    def no_global_order(self) -> bool:
        return (self.witness_mixed_above is not None
                and self.witness_mixed_below is not None)

    def as_dict(self) -> dict:
        return {"violations": [list(v) for v in self.violations],
                "max_delta12": self.max_delta12,
                "witness_mixed_above": self.witness_mixed_above,
                "witness_mixed_below": self.witness_mixed_below,
                "no_global_order": self.no_global_order}


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
    """The first row of pairs where hit is True, as a tuple of floats, or None."""
    hits = np.flatnonzero(hit)
    return tuple(pairs[hits[0]].tolist()) if hits.size else None


def ordering_check(table) -> OrderingReport:
    """Check the per-epsilon ordering e_mixed <= N <= e_pure <= C_closed and
    hunt cross-epsilon pairs at matched mixedness that break any fixed order
    between e_mixed and N.

    table is a sweep table (measures.RECORD_DTYPE rows), grouped by epsilon
    here with a stable sort. Violations come epsilon ascending, then in row
    and check order; a witness is the first matched row, over the ordered
    epsilon pairs, with its gap beyond 1e-9.
    """
    orders = (("e_mixed", "negativity", "e_mixed > negativity"),
              ("negativity", "e_pure", "negativity > e_pure"),
              ("e_pure", "concurrence_paper", "e_pure > concurrence"))
    rows = table[np.argsort(table["epsilon"], kind="stable")]
    eps, t, d12 = rows["epsilon"], rows["t"], rows["delta12"]
    broken = np.column_stack([rows[lo] > rows[hi] + ORDER_TOL for lo, hi, _ in orders])
    violations = [(float(eps[k]), float(t[k]), orders[j][2])
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
        above = above or _first_row(pairs, gap > 1e-9)
        below = below or _first_row(pairs, gap < -1e-9)
        if above and below:
            break
    return OrderingReport(violations=violations,
                          max_delta12=float(d12.max(initial=0.0)),
                          witness_mixed_above=above, witness_mixed_below=below)
