"""Brute-force ground truth: the two qubits coupled to N oscillator modes.

The full Hamiltonian is diagonal in the product basis spanned by the two
populated qubit branches and the Fock states, so exact evolution is phase
accumulation per basis state; the reservoir trace-out is then a single
branch-overlap sum. Qubit z eigenvalues are taken as +-1/2, which puts the
(mu1+mu2)/2 factor in the per-mode phases and is validated by matching the
closed-form decoherence factor exactly.

Two routes take that sum. check_grid, which oracle-check runs, sums by
total occupation N = sum_k n_k: both branches start from the same
coefficients f and only pick up phases, so the populations do not depend
on t, and in the corner sum plus*conj(minus) the shared rate (mode
energies, cross-Kerr, mu12) cancels. What is left is the branch rate b(N),
so the corner is w+ w- sum_N P(N) e^{-2it b(N)} with P(N) = sum_{|n|=N}
|f_n|^2, and P comes from convolving the per-mode truncated weights; no
product grid is built, so the mode count is not capped, and the T reduced
states are checked and compared as one (T, 4, 4) stack. build_joint,
evolve_joint and reduce_density keep the per-index sum over the product
grid as the reference for small configs: build_joint computes each basis
state's branch rates once, and each t then costs two complex exponentials
and one reduction (reduce_and_compare).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams, evolve
from .errors import CutoffTooTight, InvalidState
from .matcore import TRACE_TOL
from .states import _checked_unit, check, family_norm, outer_block


@dataclass(frozen=True)
class ReservoirConfig:
    """Coherent amplitudes per mode, frequency ratios, the reservoir
    cross-Kerr strength, the qubit-qubit coupling and the truncation rule."""

    alphas: tuple
    omega_ratios: tuple
    mu_cross: float = 0.0
    mu12: float = 0.0
    cutoff_tail: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(complex(a) for a in self.alphas))
        object.__setattr__(self, "omega_ratios",
                           tuple(float(w) for w in self.omega_ratios))
        # a non-finite alpha makes the sum non-finite too
        if not math.isfinite(self.ntilde):
            raise ValueError(f"alphas must be finite, and so must the sum of their "
                             f"|alpha|^2, got {self.alphas}")
        for name in ("omega_ratios", "mu_cross", "mu12"):
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
        if any(w <= 0.0 for w in self.omega_ratios):
            raise ValueError(f"omega_ratios must be positive, got {self.omega_ratios}")
        if len(self.alphas) < 1:
            raise ValueError("need at least one reservoir mode")
        if len(self.omega_ratios) != len(self.alphas):
            raise ValueError("omega_ratios and alphas must have equal length")
        if not 0.0 < self.cutoff_tail < 1.0:
            raise ValueError("cutoff_tail must be in (0, 1)")

    @property
    def modes(self) -> int:
        return len(self.alphas)

    @property
    def ntilde(self) -> float:
        return float(sum(abs(a) * abs(a) for a in self.alphas))


def fock_cutoff(mean: float, tail: float, limit: int = 64) -> int:
    """Smallest max occupation whose truncated coherent weight is >= 1 - tail;
    CutoffTooTight if it exceeds limit.

    Each Poisson term is taken in logs, exp(n log mean - mean - lgamma(n+1)),
    so a start term exp(-mean) that underflows costs no precision.
    """
    if mean < 0:
        raise ValueError("mean occupation must be >= 0")
    if mean == 0:
        return 0
    log_mean = math.log(mean)
    n = 0
    total = math.exp(-mean)
    while total < 1.0 - tail:
        n += 1
        if n > limit:
            raise CutoffTooTight(
                f"mean occupation {mean} needs a cutoff above the hard limit "
                f"{limit} for tail {tail}")
        total += math.exp(n * log_mean - mean - math.lgamma(n + 1))
    return n


def _mode_sizes(r: ReservoirConfig) -> tuple:
    # per-mode Fock grid sizes: each cutoff plus the vacuum
    return tuple(fock_cutoff(abs(a) ** 2, r.cutoff_tail) + 1 for a in r.alphas)


def _mode_coefficients(alpha: complex, size: int) -> np.ndarray:
    # truncated coherent-state coefficients e^{-|alpha|^2/2} alpha^n / sqrt(n!)
    n = np.arange(size)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, size)))))
    return np.exp(-0.5 * abs(alpha) ** 2 - 0.5 * log_fact) * alpha**n


def _branch_rate(c: ChannelParams, occupation):
    # the +-branch phase rate at total occupation N; the shared rate of the
    # two branches carries the rest of the Hamiltonian
    return 0.5 * (c.omega1 + c.omega2) + 0.5 * (c.mu1 + c.mu2) * occupation


def _branch_weights(eps: float) -> tuple:
    # the scalar weights eps/sqrt(n) and (1-eps)/sqrt(n) of |++> and |-->
    root_n = math.sqrt(family_norm(_checked_unit("epsilon", eps)))
    return eps / root_n, (1.0 - eps) / root_n


def occupation_weights(r: ReservoirConfig) -> np.ndarray:
    """P(N) = sum over |n| = N of |f_n|^2, N = 0 .. sum of the mode cutoffs:
    the truncated joint weight by total occupation, convolved mode by mode
    from the same coefficients build_joint takes the product of."""
    p = np.ones(1)
    for alpha, size in zip(r.alphas, _mode_sizes(r)):
        p = np.convolve(p, np.abs(_mode_coefficients(alpha, size)) ** 2)
    return p


@dataclass(frozen=True)
class JointAmplitudes:
    """Truncated coefficients of the two populated branches.

    plus/minus are flattened C-order over the per-mode Fock grid (shape
    prod(sizes)); the scalar branch weights eps/sqrt(n) and (1-eps)/sqrt(n)
    stay outside the arrays. rate_plus/rate_minus are the branches'
    per-basis-state phase rates, same layout: at time t each coefficient
    picks up exp(-i t rate).
    """

    plus: np.ndarray
    minus: np.ndarray
    rate_plus: np.ndarray
    rate_minus: np.ndarray
    weight_plus: float
    weight_minus: float
    sizes: tuple
    cutoff_tail: float

    def __post_init__(self):
        for a in (self.plus, self.minus, self.rate_plus, self.rate_minus):
            a.setflags(write=False)

    def norm_squared(self) -> float:
        return float(self.weight_plus**2 * np.vdot(self.plus, self.plus).real
                     + self.weight_minus**2 * np.vdot(self.minus, self.minus).real)


def build_joint(eps: float, r: ReservoirConfig,
                c: ChannelParams) -> JointAmplitudes:
    """Initial joint amplitudes and the branch phase rates: both branches
    carry the product of truncated coherent-state coefficient vectors."""
    weight_plus, weight_minus = _branch_weights(eps)
    sizes = _mode_sizes(r)
    f = np.ones(1, dtype=complex)
    for alpha, size in zip(r.alphas, sizes):
        f = np.kron(f, _mode_coefficients(alpha, size))
    occ = np.indices(sizes).reshape(len(sizes), -1).astype(float)
    ratios = np.asarray(r.omega_ratios)
    wn = ratios[:, None] * occ
    # mode energies as printed: omega1 * ratio_j * (n_j + 1/2)
    energy = c.omega1 * (wn + 0.5 * ratios[:, None]).sum(axis=0)
    # cross-Kerr over pairs k > j, ratio factors inside the sum:
    # 2*sum_{k>j} x_k x_j = (sum x)^2 - sum x^2 with x_j = ratio_j * n_j
    swn = wn.sum(axis=0)
    kerr = r.mu_cross * c.omega1 * (swn**2 - (wn**2).sum(axis=0))
    shared = energy + kerr + 0.25 * r.mu12
    branch = _branch_rate(c, occ.sum(axis=0))
    return JointAmplitudes(plus=f.copy(), minus=f.copy(),
                           rate_plus=shared + branch, rate_minus=shared - branch,
                           weight_plus=weight_plus, weight_minus=weight_minus,
                           sizes=sizes, cutoff_tail=r.cutoff_tail)


def evolve_joint(j: JointAmplitudes, t: float) -> JointAmplitudes:
    """Apply the diagonal evolution: each coefficient picks up e^{-i t rate}."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return replace(j, plus=j.plus * np.exp(-1j * (t * j.rate_plus)),
                   minus=j.minus * np.exp(-1j * (t * j.rate_minus)))


def reduce_density(j: JointAmplitudes) -> np.ndarray:
    """Trace out the reservoir: populations from branch norms, corner from
    the branch overlap (flattened C-order summation, reproducible)."""
    return outer_block(
        j.weight_plus**2 * np.vdot(j.plus, j.plus).real,
        j.weight_minus**2 * np.vdot(j.minus, j.minus).real,
        j.weight_plus * j.weight_minus * np.sum(j.plus * np.conj(j.minus)))


def reduce_grouped(eps: float, r: ReservoirConfig, c: ChannelParams,
                   t_grid) -> np.ndarray:
    """The reduced oracle states at every t of t_grid, as one (T, 4, 4)
    array, summed by total occupation: populations w+-^2 sum_N P(N) and
    corners w+ w- sum_N P(N) e^{-2it b(N)}, all t in one exponential and
    one matrix product."""
    t = np.asarray(t_grid, dtype=float)
    if (t < 0).any():
        raise ValueError(f"t must be >= 0, got {t[t < 0][0]}")
    weight_plus, weight_minus = _branch_weights(eps)
    weights = occupation_weights(r)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        angle = 2.0 * np.multiply.outer(t, _branch_rate(c, np.arange(weights.size)))
    if not np.isfinite(angle).all():
        raise ValueError("the branch rate (omega1 + omega2)/2 + (mu1 + mu2) N/2 overflows")
    corners = np.exp(-1j * angle) @ weights
    total = weights.sum()
    return outer_block(weight_plus**2 * total, weight_minus**2 * total,
                       weight_plus * weight_minus * corners)


def compare_reduced(raw: np.ndarray, closed: np.ndarray, modes: int,
                    cutoff_tail: float):
    """Entrywise distances of reduced oracle states to the closed form and
    corner phase offsets, one of each per state of a (T, 4, 4) stack.

    Truncation leaves the trace at 1 - (sum of per-mode tails), so one check
    runs with the trace tolerance widened accordingly (never renormalized).
    """
    problems = check(raw, trace_tol=max(TRACE_TOL, 20.0 * modes * cutoff_tail))
    if problems:
        raise InvalidState(problems)
    return np.abs(raw - closed).max(axis=(-2, -1)), corner_phase_offset(raw, closed)


def reduce_and_compare(j_evolved: JointAmplitudes, eps: float,
                       c: ChannelParams, t: float):
    """The per-index reduction of an evolved joint state, checked, and
    compare_reduced's distance and offset to the closed form at t."""
    raw = reduce_density(j_evolved)
    diff, offset = compare_reduced(raw, evolve(eps, c, t),
                                   len(j_evolved.sizes), j_evolved.cutoff_tail)
    return raw, diff, offset


def check_grid(eps: float, r: ReservoirConfig, c: ChannelParams, t_grid):
    """Entrywise distances to the closed form and corner phase offsets of
    the grouped reduction, one of each per t, every state checked."""
    closed = evolve(eps, c, t_grid)
    diffs, offsets = compare_reduced(reduce_grouped(eps, r, c, t_grid), closed,
                                     r.modes, r.cutoff_tail)
    return diffs.tolist(), offsets.tolist()


def corner_phase_offset(raw: np.ndarray, closed: np.ndarray):
    """Angle between the oracle corner and the closed-form corner (radians),
    0 where either corner is below 1e-300; an array for stacks.

    Zero even for mu12 != 0: the qubit-qubit term adds the same phase to
    both branches, which cancels in the overlap.
    """
    a, b = raw[..., 0, 3], closed[..., 0, 3]
    vanished = (np.abs(a) < 1e-300) | (np.abs(b) < 1e-300)
    return np.where(vanished, 0.0, np.angle(a * np.conj(b)))[()]
