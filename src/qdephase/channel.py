"""The phase-damping channel: decoherence factor, Kraus pair and the
closed-form evolution of the family states.

The damping parameter gamma is computed in one place (decoherence_factor)
from ntilde and (mu1+mu2)t, to full relative precision even where it is
small, and |a|^2 + gamma = 1 holds to rounding everywhere downstream.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedSubspace
from .states import FamilyParams, TwoQubitState, family_state, initial_pure

MIDDLE_BLOCK_TOL = 1e-12


@dataclass(frozen=True)
class ChannelParams:
    """Qubit frequencies (rad/s), qubit-reservoir couplings (rad/s) and the
    effective reservoir excitation ntilde = sum |alpha_j|^2 (dimensionless)."""

    omega1: float
    omega2: float
    mu1: float
    mu2: float
    ntilde: float

    def __post_init__(self):
        vals = (self.omega1, self.omega2, self.mu1, self.mu2, self.ntilde)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("channel parameters must be finite")
        for name, total in (("omega1 + omega2", self.omega1 + self.omega2),
                            ("mu1 + mu2", self.mu1 + self.mu2)):
            if not math.isfinite(total):
                raise ValueError(f"{name} must be finite, got {total}")
        if self.ntilde < 0:
            raise ValueError(f"ntilde must be >= 0, got {self.ntilde}")

    @property
    def period(self) -> float:
        """Revival period 2*pi/(mu1+mu2); inf for uncoupled qubits."""
        s = self.mu1 + self.mu2
        return math.inf if s == 0 else 2.0 * math.pi / abs(s)


@dataclass(frozen=True)
class DecoherenceFactor:
    """Corner multiplier a, damping gamma = 1 - |a|^2 and the phase of a."""

    a: complex
    gamma: float
    phase: float


def decoherence_factor(p: ChannelParams, t) -> DecoherenceFactor:
    """Decoherence factor at a time t >= 0, or its fields as arrays over an
    array of times.

    |a| = exp(ntilde*(cos((mu1+mu2)t) - 1)), phase = (omega1+omega2)t
    + ntilde*sin((mu1+mu2)t), and gamma = 1 - |a|^2 as -expm1(-4 ntilde
    sin^2((mu1+mu2)t/2)), precise near t = 0 and each revival. The first
    negative t, or t whose (mu1+mu2)t or phase overflows, raises ValueError.
    """
    t = np.asarray(t, dtype=float)
    if (t < 0).any():
        raise ValueError(f"t must be >= 0, got {t[t < 0][0]}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        theta = (p.mu1 + p.mu2) * t
        phase = (p.omega1 + p.omega2) * t + p.ntilde * np.sin(theta)
    bad = ~(np.isfinite(theta) & np.isfinite(phase))
    if bad.any():
        raise ValueError(f"the channel phase at t = {t[bad][0]} is not finite")
    mag = np.exp(p.ntilde * (np.cos(theta) - 1.0))
    gamma = -np.expm1(p.ntilde * (-4.0 * np.square(np.sin(0.5 * theta))))
    a = mag * (np.cos(phase) - 1j * np.sin(phase))
    return DecoherenceFactor(a=a, gamma=gamma, phase=phase)


def kraus_ops(gamma: float):
    """The channel's Kraus pair E0 = diag(1,0,0,sqrt(1-gamma)), E1 = diag(0,0,0,sqrt(gamma)).

    Complete only on the populated outer block: E0†E0 + E1†E1 = diag(1,0,0,1).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    e0 = np.diag([1.0, 0.0, 0.0, math.sqrt(1.0 - gamma)]).astype(complex)
    e1 = np.diag([0.0, 0.0, 0.0, math.sqrt(gamma)]).astype(complex)
    return e0, e1


def apply_channel(rho0: TwoQubitState, gamma: float) -> TwoQubitState:
    """E0 rho0 E0† + E1 rho0 E1† for states supported on span{|++>, |-->}.

    The Kraus pair is not trace preserving off that block, so populated
    middle rows/columns are rejected rather than silently losing trace.
    """
    m = rho0.matrix
    mid = max(np.abs(m[1:3, :]).max(), np.abs(m[:, 1:3]).max())
    if mid > MIDDLE_BLOCK_TOL:
        raise UnsupportedSubspace(
            f"middle block magnitude {mid:.3e} exceeds {MIDDLE_BLOCK_TOL:.1e}")
    e0, e1 = kraus_ops(gamma)
    out = e0 @ m @ e0.conj().T + e1 @ m @ e1.conj().T
    return TwoQubitState(out)


def evolve(epsilon: float, c: ChannelParams, t: float) -> TwoQubitState:
    """Closed-form family state at time t: corner scaled by the decoherence factor."""
    return family_state(epsilon, decoherence_factor(c, t).a)


def pure_reference_at(epsilon: float, c: ChannelParams, t: float) -> TwoQubitState:
    """Co-rotating pure reference: the initial pure state at the channel phase."""
    return initial_pure(FamilyParams(epsilon, decoherence_factor(c, t).phase))
