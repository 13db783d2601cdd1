"""Two-qubit density matrices: the dephasing family and its reference states.

Basis order is fixed everywhere as |++>, |+->, |-+>, |--> and the family
lives on the outer 2x2 block (|++>, |-->); the middle block is zero by
construction, bit-exact.

A state is a plain complex ndarray: a 4x4 matrix, or an (N, 4, 4) stack
where a builder is given an array. validate returns a read-only checked
copy; the family builders build by construction and check only epsilon.
"""

import json

import numpy as np

from . import kernels
from .errors import BadDim, InvalidState
from .matcore import TRACE_TOL, _eigen, as_matrix


def family_norm(epsilon):
    """The family normalization n = epsilon^2 + (1-epsilon)^2, never below
    1/2 on [0, 1]; elementwise for an array, by the same arithmetic (squares
    as x * x: a Python float's x**2 goes through pow, which can round
    differently)."""
    return epsilon * epsilon + (1.0 - epsilon) * (1.0 - epsilon)


def family_delta(eps, gamma):
    """The family's sqrt(1 - C^2) at damping gamma, elementwise, as
    sqrt((1 - 2 eps)^2 + m^2 gamma)/n with m = 2 eps (1 - eps), n = eps^2 +
    (1 - eps)^2: free of cancellation as C -> 1 (Wootters, PRL 80, 2245 (1998))."""
    m = 2.0 * eps * (1.0 - eps)
    return np.sqrt((1.0 - 2.0 * eps) * (1.0 - 2.0 * eps) + m * m * gamma) / family_norm(eps)


def _checked_unit(name, values, slack=0.0):
    # values, a number or a column, returned as given once every one is in
    # [0, 1 + slack]; the first value outside is named
    v = np.asarray(values)
    bad = v[~((0.0 <= v) & (v <= 1.0 + slack))]
    if bad.size:
        raise ValueError(f"{name} must be in [0, 1], got {bad[0]}")
    return values


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
    return [text for _, text in _eigen(a, kernels.eigvalsh_herm, trace_tol)[1]]


def validate(m) -> np.ndarray:
    """A read-only copy of m once it passes check, or InvalidState with the
    diagnostics."""
    problems = check(m)
    if problems:
        raise InvalidState(problems)
    a = as_matrix(m).copy()
    a.setflags(write=False)
    return a


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


def family_state(epsilon, a) -> np.ndarray:
    """The family state with corner coherence eps(1-eps) a/n (|a| <= 1): a
    4x4 matrix, or an (N, 4, 4) stack for an array of corner factors a or a
    column of epsilon (the two broadcast), by the same arithmetic."""
    eps = _checked_unit("epsilon", epsilon)
    n = family_norm(eps)
    return outer_block(eps * eps / n, (1.0 - eps) * (1.0 - eps) / n,
                       eps * (1.0 - eps) * np.asarray(a, dtype=complex) / n)


def initial_pure(epsilon, phase=0.0) -> np.ndarray:
    """Rank-1 projector onto (eps|++> + (1-eps)e^{i phase}|-->)/sqrt(n):
    family_state at a = e^{-i phase}, a stack for an array of phases or a
    column of epsilon."""
    phase = np.asarray(phase, dtype=float)
    if not np.isfinite(phase).all():
        raise ValueError("phase must be finite")
    return family_state(epsilon, np.exp(-1j * phase))


def maximally_mixed() -> np.ndarray:
    return np.eye(4, dtype=complex) / 4.0


def mixed_reference(ntilde: float, phase: float = 0.0) -> np.ndarray:
    """Maximally entangled family's dephasing floor: diag(1/2,0,0,1/2) plus a
    corner of magnitude e^{-2*ntilde}/2 at phase e^{-i*phase}.

    Entangled for every finite ntilde (its partial transpose has eigenvalue
    -e^{-2*ntilde}/2), so it is a reproduction reference, not a member of the
    separable set the optimizer searches.
    """
    if ntilde < 0:
        raise ValueError(f"ntilde must be >= 0, got {ntilde}")
    return outer_block(0.5, 0.5, np.exp(-1j * phase) * np.exp(-2.0 * ntilde) / 2.0)


def state_to_json(state) -> dict:
    """JSON form: {"dim": 4, "re": [[...]], "im": [[...]]} row-major."""
    a = as_matrix(state)
    return {"dim": int(a.shape[0]), "re": a.real.tolist(), "im": a.imag.tolist()}


def state_from_json(data) -> np.ndarray:
    """Validate a state in its parsed JSON form; dim must be a JSON integer."""
    try:
        dim = data["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise TypeError(f"dim must be an integer, got {dim!r}")
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidState([f"malformed state JSON: {exc}"]) from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise InvalidState([f"re/im shapes {re.shape}/{im.shape} do not match dim {dim}"])
    with np.errstate(invalid="ignore"):  # 1j * inf has a nan real part, which check names
        m = re + 1j * im
    return validate(m)


def save_state(state, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json(state), fh, indent=1)
        fh.write("\n")


def load_state(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return state_from_json(json.load(fh))
