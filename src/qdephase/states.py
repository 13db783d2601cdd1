"""Two-qubit density matrices: the dephasing family and its reference states.

Basis order is fixed everywhere as |++>, |+->, |-+>, |--> and the family
lives on the outer 2x2 block (|++>, |-->); the middle block is zero by
construction, bit-exact.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import BadDim, InvalidState, NotHermitian
from .matcore import HERM_TOL, PSD_TOL, TRACE_TOL, _eigen, _stack_prefix, as_matrix


def family_norm(epsilon):
    """The family normalization n = epsilon^2 + (1-epsilon)^2, never below
    1/2 on [0, 1]; elementwise for an array."""
    return epsilon**2 + (1.0 - epsilon) ** 2


@dataclass(frozen=True)
class FamilyParams:
    """Mixing weight epsilon in [0, 1] and corner phase (radians)."""

    epsilon: float
    phase: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not np.isfinite(self.phase):
            raise ValueError("phase must be finite")

    @property
    def norm(self) -> float:
        return family_norm(self.epsilon)


@dataclass(frozen=True)
class TwoQubitState:
    """A validated 4x4 density matrix. Construct via validate()."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.matrix.setflags(write=False)

    def purity(self) -> float:
        return float(kernels.purity(self.matrix))


def check(m, trace_tol: float = TRACE_TOL) -> list:
    """Diagnostics for the density-matrix invariants, with |Tr m - 1| held to
    trace_tol; empty when valid. An (N, 4, 4) stack gives its first failing
    matrix k's, prefixed "matrix k of the stack: ", but a non-finite matrix
    first, wherever it sits."""
    try:
        a = as_matrix(m, stacked=True)
    except BadDim as exc:
        return [str(exc)]
    if a.shape[-1] != 4:
        return [f"dimension is {a.shape[-1]}, expected 4"]
    stack = a.reshape(-1, 4, 4)
    try:
        w, defect = _eigen(stack, kernels.eigvalsh_herm)
    except NotHermitian as exc:  # a non-finite entry
        return [str(exc) if a.ndim == 3 else "matrix contains non-finite entries"]
    deviation = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0)
    hermitian = defect <= HERM_TOL
    broken = np.column_stack([~hermitian, deviation > trace_tol,
                              hermitian & (w[:, 0] < -PSD_TOL)])
    bad = np.flatnonzero(broken.any(axis=1))
    if not bad.size:
        return []
    k = bad[0]
    said = (f"hermiticity defect {defect[k]:.3e} exceeds {HERM_TOL:.1e}",
            f"trace deviates from 1 by {deviation[k]:.3e}",
            f"negative eigenvalue {w[k, 0]:.3e} below -{PSD_TOL:.1e}")
    return [_stack_prefix(a, k) + text for text, hit in zip(said, broken[k]) if hit]


def validate(m) -> TwoQubitState:
    """Return a validated TwoQubitState or raise InvalidState with diagnostics."""
    problems = check(m)
    if problems:
        raise InvalidState(problems)
    return TwoQubitState(as_matrix(m).copy())


def outer_block(pop_plus, pop_minus, corner) -> np.ndarray:
    """diag(pop_plus, 0, 0, pop_minus) with corner as its |++><--| entry;
    an array of corners gives an (N, 4, 4) stack, one matrix per corner."""
    corner = np.asarray(corner)
    m = np.zeros(corner.shape + (4, 4), dtype=complex)
    m[..., 0, 0] = pop_plus
    m[..., 3, 3] = pop_minus
    m[..., 0, 3] = corner
    m[..., 3, 0] = np.conj(corner)
    return m


def _family_matrix(p: FamilyParams, corner) -> np.ndarray:
    return outer_block(p.epsilon**2 / p.norm, (1.0 - p.epsilon) ** 2 / p.norm, corner)


def _corner(p: FamilyParams, factor):
    """The family corner eps(1-eps) factor/n; factor may be an array."""
    return p.epsilon * (1.0 - p.epsilon) * factor / p.norm


def family_state(epsilon: float, a: complex) -> TwoQubitState:
    """Family state with corner coherence eps(1-eps)*a/n (|a| <= 1)."""
    return TwoQubitState(family_stack(epsilon, [a])[0])


def family_stack(epsilon: float, a) -> np.ndarray:
    """The family states of corner factors a_k, as one (N, 4, 4) array."""
    p = FamilyParams(epsilon)
    return _family_matrix(p, _corner(p, np.asarray(a, dtype=complex)))


def initial_pure(p: FamilyParams) -> TwoQubitState:
    """Rank-1 projector onto (eps|++> + (1-eps)e^{i phase}|-->)/sqrt(n)."""
    return TwoQubitState(initial_pure_stack(p.epsilon, [p.phase])[0])


def initial_pure_stack(epsilon: float, phases) -> np.ndarray:
    """initial_pure(FamilyParams(epsilon, phase_k)).matrix for each phase, as
    one (N, 4, 4) array, equal to the single-state matrices bit for bit."""
    p = FamilyParams(epsilon)
    phases = np.asarray(phases, dtype=float)
    if not np.all(np.isfinite(phases)):
        raise ValueError("phase must be finite")
    return _family_matrix(p, _corner(p, np.exp(-1j * phases)))


def maximally_mixed() -> TwoQubitState:
    return TwoQubitState(np.eye(4, dtype=complex) / 4.0)


def mixed_reference(ntilde: float, phase: float = 0.0) -> TwoQubitState:
    """Maximally entangled family's dephasing floor: diag(1/2,0,0,1/2) plus a
    corner of magnitude e^{-2*ntilde}/2 at phase e^{-i*phase}.

    Entangled for every finite ntilde (its partial transpose has eigenvalue
    -e^{-2*ntilde}/2), so it is a reproduction reference, not a member of the
    separable set the optimizer searches.
    """
    if ntilde < 0:
        raise ValueError(f"ntilde must be >= 0, got {ntilde}")
    return TwoQubitState(outer_block(0.5, 0.5,
                                     np.exp(-1j * phase) * np.exp(-2.0 * ntilde) / 2.0))


def state_to_json(state) -> dict:
    """JSON form: {"dim": 4, "re": [[...]], "im": [[...]]} row-major."""
    a = as_matrix(state)
    return {"dim": int(a.shape[0]), "re": a.real.tolist(), "im": a.imag.tolist()}


def state_from_json(data) -> TwoQubitState:
    """Parse and validate the JSON state format."""
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    try:
        dim = int(data["dim"])
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidState([f"malformed state JSON: {exc}"]) from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise InvalidState([f"re/im shapes {re.shape}/{im.shape} do not match dim {dim}"])
    return validate(re + 1j * im)


def save_state(state, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json(state), fh, indent=1)
        fh.write("\n")


def load_state(path) -> TwoQubitState:
    with open(path, encoding="utf-8") as fh:
        return state_from_json(json.load(fh))
