"""Brute-force ground truth: the two qubits coupled to N oscillator modes.

The full Hamiltonian is diagonal in the product basis spanned by the two
populated qubit branches and the Fock states, so exact evolution is phase
accumulation per basis state; the reservoir trace-out is then a single
branch-overlap sum. Qubit z eigenvalues are taken as +-1/2, which puts the
(mu1+mu2)/2 factor in the per-mode phases and is validated by matching the
closed-form decoherence factor exactly.

The per-basis-state phase rates of both branches do not depend on t, so
build_joint computes them once; each t then costs two complex exponentials
(evolve_joint) and one reduction (reduce_and_compare).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams, evolve
from .errors import CutoffTooTight
from .matcore import Tolerances
from .states import FamilyParams, validate

MAX_TOTAL_INDICES = 4_000_000


@dataclass(frozen=True)
class ReservoirConfig:
    """Coherent amplitudes per mode, frequency ratios, the reservoir
    cross-Kerr strength, the qubit-qubit coupling and the truncation rule."""

    alphas: tuple
    omega_ratios: tuple
    mu_cross: float = 0.0
    mu12: float = 0.0
    cutoff_tail: float = 1e-10
    hard_cutoff: int = 64

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(complex(a) for a in self.alphas))
        object.__setattr__(self, "omega_ratios",
                           tuple(float(w) for w in self.omega_ratios))
        if len(self.alphas) < 1:
            raise ValueError("need at least one reservoir mode")
        if len(self.omega_ratios) != len(self.alphas):
            raise ValueError("omega_ratios and alphas must have equal length")
        if not 0.0 < self.cutoff_tail < 1.0:
            raise ValueError("cutoff_tail must be in (0, 1)")
        if self.hard_cutoff < 1:
            raise ValueError("hard_cutoff must be >= 1")

    @property
    def modes(self) -> int:
        return len(self.alphas)

    @property
    def ntilde(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.alphas))

    @property
    def resonant(self) -> bool:
        return len(set(self.omega_ratios)) == 1

    def channel_params(self, omega1, omega2, mu1, mu2) -> ChannelParams:
        """Channel parameters whose ntilde matches this reservoir."""
        return ChannelParams(omega1, omega2, mu1, mu2, self.ntilde)


def fock_cutoff(mean: float, tail: float) -> int:
    """Smallest max occupation whose truncated coherent weight is >= 1 - tail."""
    if mean < 0:
        raise ValueError("mean occupation must be >= 0")
    term = math.exp(-mean)
    total = term
    n = 0
    while total < 1.0 - tail:
        n += 1
        term *= mean / n
        total += term
        if n > 10_000:
            raise CutoffTooTight(f"no cutoff below 10000 for mean {mean}")
    return n


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
    cutoff_tail: float = 1e-10

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
    p = FamilyParams(eps)
    cutoffs = [fock_cutoff(abs(a) ** 2, r.cutoff_tail) for a in r.alphas]
    if any(k > r.hard_cutoff for k in cutoffs):
        raise CutoffTooTight(
            f"per-mode cutoffs {cutoffs} exceed the hard limit {r.hard_cutoff}")
    sizes = tuple(k + 1 for k in cutoffs)
    total = int(np.prod(sizes))
    if total > MAX_TOTAL_INDICES:
        raise CutoffTooTight(f"{total} multi-indices exceed {MAX_TOTAL_INDICES}")

    f = np.ones(1, dtype=complex)
    for alpha, size in zip(r.alphas, sizes):
        n = np.arange(size)
        log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, size)))))
        coeff = np.exp(-0.5 * abs(alpha) ** 2 - 0.5 * log_fact) * alpha**n
        f = np.kron(f, coeff)
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
    branch = 0.5 * (c.omega1 + c.omega2) + 0.5 * (c.mu1 + c.mu2) * occ.sum(axis=0)
    root_n = math.sqrt(p.norm)
    return JointAmplitudes(plus=f.copy(), minus=f.copy(),
                           rate_plus=shared + branch, rate_minus=shared - branch,
                           weight_plus=eps / root_n,
                           weight_minus=(1.0 - eps) / root_n,
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
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = j.weight_plus**2 * np.vdot(j.plus, j.plus).real
    m[3, 3] = j.weight_minus**2 * np.vdot(j.minus, j.minus).real
    corner = j.weight_plus * j.weight_minus * np.sum(j.plus * np.conj(j.minus))
    m[0, 3] = corner
    m[3, 0] = np.conj(corner)
    return m


def reduce_and_compare(j_evolved: JointAmplitudes, eps: float,
                       c: ChannelParams, t: float):
    """Reduced oracle state, its entrywise distance to the closed form and
    the corner phase offset between the two.

    Truncation leaves the trace at 1 - (sum of per-mode tails), so validation
    runs with the trace tolerance widened accordingly (never renormalized).
    """
    raw = reduce_density(j_evolved)
    closed = evolve(eps, c, t).matrix
    diff = float(np.abs(raw - closed).max())
    modes = len(j_evolved.sizes)
    tol = Tolerances(trace=max(1e-10, 20.0 * modes * j_evolved.cutoff_tail))
    state = validate(raw, tol)
    return state, diff, corner_phase_offset(raw, closed)


def corner_phase_offset(raw: np.ndarray, closed: np.ndarray) -> float:
    """Angle between the oracle corner and the closed-form corner (radians).

    Zero even for mu12 != 0: the qubit-qubit term adds the same phase to
    both branches, which cancels in the overlap.
    """
    a, b = raw[0, 3], closed[0, 3]
    if abs(a) < 1e-300 or abs(b) < 1e-300:
        return 0.0
    return float(np.angle(a * np.conj(b)))


def joint_vector(j: JointAmplitudes) -> np.ndarray:
    """Full joint pure-state vector on (qubit pair) x (truncated reservoir).

    Ordered as the 4-dim qubit basis tensor the flattened Fock grid; only
    the |++> and |--> blocks are populated. Intended for small configs.
    """
    total = int(np.prod(j.sizes))
    v = np.zeros(4 * total, dtype=complex)
    v[:total] = j.weight_plus * j.plus
    v[3 * total:] = j.weight_minus * j.minus
    return v
