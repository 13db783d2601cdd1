"""Two-qubit density matrices: the dephasing family and its reference states.

Basis order is fixed everywhere as |++>, |+->, |-+>, |--> and the family
lives on the outer 2x2 block (|++>, |-->); the middle block is zero by
construction, bit-exact.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import BadDim, InvalidState
from .matcore import DEFAULT_TOL, Tolerances, as_matrix, hermitian_eig


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
        """epsilon^2 + (1-epsilon)^2; never below 1/2 on [0, 1]."""
        return self.epsilon**2 + (1.0 - self.epsilon) ** 2


@dataclass(frozen=True)
class TwoQubitState:
    """A validated 4x4 density matrix. Construct via validate()."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return 4

    def purity(self) -> float:
        return float(kernels.purity(self.matrix))


def check(m, tol: Tolerances = DEFAULT_TOL) -> list:
    """Diagnostics for the density-matrix invariants; empty when valid."""
    problems = []
    try:
        a = as_matrix(m)
    except BadDim as exc:
        return [str(exc)]
    if a.shape != (4, 4):
        return [f"dimension is {a.shape[0]}, expected 4"]
    if not np.all(np.isfinite(a.view(float))):
        return ["matrix contains non-finite entries"]
    defect = float(np.abs(a - a.conj().T).max())
    hermitian_ok = defect <= tol.herm
    if not hermitian_ok:
        problems.append(f"hermiticity defect {defect:.3e} exceeds {tol.herm:.1e}")
    tr = complex(a.trace())
    if abs(tr - 1.0) > tol.trace:
        problems.append(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
    if hermitian_ok:
        w, _ = hermitian_eig((a + a.conj().T) / 2.0, tol)
        if w[0] < -tol.psd:
            problems.append(f"negative eigenvalue {w[0]:.3e} below -{tol.psd:.1e}")
    return problems


def validate(m, tol: Tolerances = DEFAULT_TOL) -> TwoQubitState:
    """Return a validated TwoQubitState or raise InvalidState with diagnostics."""
    problems = check(m, tol)
    if problems:
        raise InvalidState(problems)
    a = as_matrix(m).astype(complex).copy()
    return TwoQubitState(a)


def _family_matrix(epsilon: float, corner) -> np.ndarray:
    """Outer-block matrix diag(e^2, 0, 0, (1-e)^2)/n with the given corner;
    an array of corners gives an (N, 4, 4) stack, one matrix per corner."""
    n = epsilon**2 + (1.0 - epsilon) ** 2
    corner = np.asarray(corner)
    m = np.zeros(corner.shape + (4, 4), dtype=complex)
    m[..., 0, 0] = epsilon**2 / n
    m[..., 3, 3] = (1.0 - epsilon) ** 2 / n
    m[..., 0, 3] = corner
    m[..., 3, 0] = np.conj(corner)
    return m


def _corner(p: FamilyParams, factor):
    """The family corner eps(1-eps) factor/n; factor may be an array."""
    return p.epsilon * (1.0 - p.epsilon) * factor / p.norm


def family_state(epsilon: float, a: complex) -> TwoQubitState:
    """Family state with corner coherence eps(1-eps)*a/n (|a| <= 1)."""
    return TwoQubitState(family_stack(epsilon, [a])[0])


def family_stack(epsilon: float, a) -> np.ndarray:
    """The family states of corner factors a_k, as one (N, 4, 4) array."""
    p = FamilyParams(epsilon)
    return _family_matrix(p.epsilon, _corner(p, np.asarray(a, dtype=complex)))


def initial_pure(p: FamilyParams) -> TwoQubitState:
    """Rank-1 projector onto (eps|++> + (1-eps)e^{i phase}|-->)/sqrt(n)."""
    return TwoQubitState(_family_matrix(p.epsilon, _corner(p, np.exp(-1j * p.phase))))


def initial_pure_stack(epsilon: float, phases) -> np.ndarray:
    """initial_pure(FamilyParams(epsilon, phase_k)).matrix for each phase, as
    one (N, 4, 4) array, equal to the single-state matrices bit for bit."""
    p = FamilyParams(epsilon)
    phases = np.asarray(phases, dtype=float)
    if not np.all(np.isfinite(phases)):
        raise ValueError("phase must be finite")
    return _family_matrix(p.epsilon, _corner(p, np.exp(-1j * phases)))


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
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    m[0, 3] = np.exp(-1j * phase) * np.exp(-2.0 * ntilde) / 2.0
    m[3, 0] = np.conj(m[0, 3])
    return TwoQubitState(m)


def mixed_reference_family(epsilon: float, ntilde: float, phase: float = 0.0) -> TwoQubitState:
    """General-epsilon dephasing floor: same populations as the family, corner
    damped by e^{-2*ntilde}. Reduces to mixed_reference at epsilon = 1/2."""
    if ntilde < 0:
        raise ValueError(f"ntilde must be >= 0, got {ntilde}")
    p = FamilyParams(epsilon)
    corner = (p.epsilon * (1.0 - p.epsilon) / p.norm
              * np.exp(-1j * phase) * np.exp(-2.0 * ntilde))
    return TwoQubitState(_family_matrix(p.epsilon, corner))


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
