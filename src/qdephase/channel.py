"""The phase-damping channel: decoherence factor, the Kraus factor of the
evolved family states and their closed-form evolution.

The damping parameter gamma is computed in one place (decoherence_factor)
from ntilde and (mu1+mu2)t, to full relative precision even where it is
small, and |a|^2 + gamma = 1 holds to rounding everywhere downstream.
"""

import math
from dataclasses import dataclass

import numpy as np

from .states import _checked_unit, family_norm, family_state, initial_pure


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
    + ntilde*sin((mu1+mu2)t), and gamma = 1 - |a|^2. Both come from one
    log|a| = -2 ntilde sin^2((mu1+mu2)t/2), which keeps the digits that
    cos - 1 cancels near t = 0 and each revival: |a| = exp(log|a|) and
    gamma = -expm1(2 log|a|). The first negative t, or t whose (mu1+mu2)t
    or phase overflows, raises ValueError.
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
    # a huge ntilde overflows log|a| to -inf, the exact limit: |a| = 0, gamma = 1
    with np.errstate(over="ignore"):
        log_mag = p.ntilde * (-2.0 * np.square(np.sin(0.5 * theta)))
        gamma = -np.expm1(2.0 * log_mag)
    a = np.exp(log_mag) * (np.cos(phase) - 1j * np.sin(phase))
    return DecoherenceFactor(a=a, gamma=gamma, phase=phase)


def kraus_factor(epsilon, a, gamma) -> np.ndarray:
    """The family state at corner factor a and damping gamma as its exact
    factor rho = UU†: U = [E0 psi, E1 psi], the channel's Kraus pair
    E0 = diag(1, 0, 0, conj(a)), E1 = diag(0, 0, 0, sqrt(gamma)) applied to
    psi = (eps, 0, 0, 1-eps)/sqrt(n). Its columns are (eps, 0, 0,
    (1-eps) conj(a))/sqrt(n) and (0, 0, 0, (1-eps) sqrt(gamma))/sqrt(n).

    A (4, 2) array, or (N, 4, 2) for arrays a and gamma or a column of
    epsilon (the three broadcast). The pair takes conj(a), not
    sqrt(1 - gamma), which loses its digits as gamma -> 1. The first
    epsilon or gamma outside [0, 1] raises ValueError.
    """
    epsilon, a, gamma = np.broadcast_arrays(
        _checked_unit("epsilon", np.asarray(epsilon, dtype=float)),
        np.asarray(a, dtype=complex), _checked_unit("gamma", np.asarray(gamma, dtype=float)))
    root_n = np.sqrt(family_norm(epsilon))
    u = np.zeros(a.shape + (4, 2), dtype=complex)
    u[..., 0, 0] = epsilon / root_n
    u[..., 3, 0] = (1.0 - epsilon) * np.conj(a) / root_n
    u[..., 3, 1] = (1.0 - epsilon) * np.sqrt(gamma) / root_n
    return u


def evolve(epsilon: float, c: ChannelParams, t) -> np.ndarray:
    """Closed-form family state at time t, corner scaled by the decoherence
    factor; an (N, 4, 4) stack over an array of times."""
    return family_state(epsilon, decoherence_factor(c, t).a)


def pure_reference_at(epsilon: float, c: ChannelParams, t) -> np.ndarray:
    """Co-rotating pure reference: the initial pure state at the channel
    phase; an (N, 4, 4) stack over an array of times."""
    return initial_pure(epsilon, decoherence_factor(c, t).phase)
