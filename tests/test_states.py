
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdephase import kernels, states
from qdephase.channel import kraus_factor
from qdephase.errors import InvalidState
from qdephase.states import family_norm, family_state, initial_pure, maximally_mixed, mixed_reference
from reference import mixed_reference_family


def test_params_validation():
    for build in (lambda eps: family_state(eps, 1.0), initial_pure,
                  lambda eps: kraus_factor(eps, 1.0, 0.0)):
        for eps in (-0.1, 1.0001, np.nan):
            with pytest.raises(ValueError, match=r"epsilon must be in \[0, 1\], got"):
                build(eps)
        # a column names its first value outside [0, 1]
        with pytest.raises(ValueError, match=r"epsilon must be in \[0, 1\], got 1.5$"):
            build(np.array([0.5, 1.5, -1.0]))
    with pytest.raises(ValueError, match="phase must be finite"):
        initial_pure(0.5, np.nan)
    assert family_norm(0.0) == 1.0
    assert family_norm(0.5) == 0.5


class TestInitialPure:
    def test_separable_endpoint(self):
        rho = initial_pure(0.0)
        expect = np.zeros((4, 4), dtype=complex)
        expect[3, 3] = 1.0
        assert np.array_equal(rho, expect)

    def test_maximally_entangled(self):
        rho = initial_pure(0.5)
        expect = np.zeros((4, 4), dtype=complex)
        expect[0, 0] = expect[3, 3] = expect[0, 3] = expect[3, 0] = 0.5
        assert np.abs(rho - expect).max() < 1e-15

    def test_quarter_entries(self):
        rho = initial_pure(0.25)
        assert rho[0, 0] == pytest.approx(0.1, abs=1e-15)
        assert rho[3, 3] == pytest.approx(0.9, abs=1e-15)
        assert rho[0, 3] == pytest.approx(0.3, abs=1e-15)

    def test_purity_over_grid(self):
        for eps in np.linspace(0.0, 1.0, 101):
            rho = initial_pure(float(eps), 0.37)
            assert abs(kernels.purity(rho) - 1.0) < 1e-12

    def test_middle_block_bit_zero(self):
        for eps in (0.0, 0.3, 0.5, 0.9):
            m = initial_pure(eps, 1.1)
            assert np.count_nonzero(m[1:3, :]) == 0
            assert np.count_nonzero(m[:, 1:3]) == 0

    def test_phase_lands_on_corner(self):
        rho = initial_pure(0.5, 0.7)
        assert rho[0, 3] == pytest.approx(0.5 * np.exp(-0.7j), abs=1e-15)


def test_stacks_equal_single_state_matrices():
    # an array of corner factors or phases gives the stack of the scalar
    # calls' matrices, bit for bit
    rng = np.random.default_rng(30)
    a = [complex(x) for x in np.exp(-rng.random(40) - 1j * 50.0 * rng.random(40))]
    phases = 1e3 * rng.standard_normal(40)
    for eps in (0.0, 0.05, 0.37, 0.5, 0.9, 1.0):
        rho, pure = family_state(eps, a), initial_pure(eps, phases)
        assert rho.shape == pure.shape == (40, 4, 4)
        assert family_state(eps, a[0]).shape == initial_pure(eps, phases[0]).shape == (4, 4)
        for k in range(40):
            assert np.array_equal(rho[k], family_state(eps, a[k]))
            assert np.array_equal(pure[k], initial_pure(eps, phases[k]))
    with pytest.raises(ValueError, match="phase must be finite"):
        initial_pure(0.5, [0.0, np.inf])
    with pytest.raises(ValueError):
        family_state(1.5, a)
    # a column of epsilon, one per state, as the sweep gives it
    eps = rng.random(40)
    rho, pure = family_state(eps, a), initial_pure(eps, phases)
    for k in range(40):
        assert np.array_equal(rho[k], family_state(float(eps[k]), a[k]))
        assert np.array_equal(pure[k], initial_pure(float(eps[k]), phases[k]))


class TestReferences:
    def test_pure_reference_is_projector(self):
        for phase in (0.0, 1.3, -2.2):
            assert kernels.purity(initial_pure(0.5, phase)) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed(self):
        rho = maximally_mixed()
        assert np.trace(rho) == pytest.approx(1.0, abs=0)
        assert np.array_equal(rho, np.eye(4) / 4)

    def test_mixed_reference_corner(self):
        m = mixed_reference(1.0, 0.0)
        assert m[0, 0] == m[3, 3] == 0.5
        assert m[0, 3] == pytest.approx(np.exp(-2.0) / 2, abs=1e-15)
        assert m[0, 3] == pytest.approx(0.06766764161830635, abs=1e-15)

    def test_mixed_reference_limits(self):
        # vanishing coherence for a hot reservoir
        m = mixed_reference(200.0)
        assert np.abs(m - np.diag([0.5, 0.0, 0.0, 0.5])).max() < 1e-100
        # untouched corner at ntilde = 0 recovers the projector
        assert np.abs(mixed_reference(0.0)
                      - initial_pure(0.5)).max() < 1e-15

    def test_mixed_reference_family_reduces(self):
        a = mixed_reference_family(0.5, 1.3, 0.4)
        b = mixed_reference(1.3, 0.4)
        assert np.abs(a - b).max() < 1e-15


class TestValidate:
    def test_accepts_maximally_mixed(self):
        states.validate(np.eye(4, dtype=complex) / 4)

    def test_rejects_trace(self):
        with pytest.raises(InvalidState) as err:
            states.validate(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
        assert any("trace" in d for d in err.value.diagnostics)

    def test_rejects_negative_eigenvalue(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[3, 3] = 0.5
        m[0, 3] = m[3, 0] = 0.51
        with pytest.raises(InvalidState) as err:
            states.validate(m)
        assert any("eigenvalue" in d for d in err.value.diagnostics)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.2
        with pytest.raises(InvalidState) as err:
            states.validate(m)
        assert any("hermiticity" in d for d in err.value.diagnostics)

    def test_check_reports_magnitudes(self):
        problems = states.check(np.diag([2.0, 0.0, 0.0, 0.0]).astype(complex))
        assert problems and "1.000e+00" in problems[0]

    def test_single_state_diagnostics_word_for_word(self):
        herm = np.eye(4, dtype=complex) / 4
        herm[0, 1] = 0.2
        both = np.diag([2.0, 0.0, 0.0, 0.0]).astype(complex)
        both[0, 1] = 0.3
        neg = np.zeros((4, 4), dtype=complex)
        neg[0, 0] = neg[3, 3] = 0.6
        neg[0, 3] = neg[3, 0] = 0.7
        nan = np.eye(4, dtype=complex) / 4
        nan[2, 1] = np.nan
        cases = [
            (herm, ["hermiticity defect 2.000e-01 exceeds 1.0e-10"]),
            (both, ["hermiticity defect 3.000e-01 exceeds 1.0e-10",
                    "trace deviates from 1 by 1.000e+00"]),
            (neg, ["trace deviates from 1 by 2.000e-01",
                   "negative eigenvalue -1.000e-01 below -1.0e-09"]),
            (nan, ["matrix has a non-finite entry"]),
            (np.eye(3), ["dimension is 3, expected 4"]),
            (np.zeros((4, 3)), ["expected a square matrix, got shape (4, 3)"])]
        for m, expect in cases:
            assert states.check(m) == expect

    def test_entries_near_the_largest_float_are_named_without_overflow(self):
        # the Hermitian part, the defect and the trace of such a matrix take
        # no overflow warning; an inf defect or deviation is the verdict
        diagonal = np.diag([1e308, 0.0, 0.0, 1e308]).astype(complex)
        anti = maximally_mixed().copy()
        anti[0, 3], anti[3, 0] = 1e308, -1e308
        corner = maximally_mixed().copy()
        corner[0, 3] = corner[3, 0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert states.check(diagonal) == ["trace deviates from 1 by inf"]
            assert states.check(anti) == ["hermiticity defect inf exceeds 1.0e-10"]
            assert states.check(corner) == ["negative eigenvalue -1.000e+308 below -1.0e-09"]

    def test_matrix_is_immutable(self):
        m = maximally_mixed()
        rho = states.validate(m)
        with pytest.raises(ValueError):
            rho[0, 0] = 9.0
        assert rho is not m  # a copy: m stays writable


def random_state(seed, rank):
    """A random state of the given rank: g g† / Tr, g a complex 4 x rank."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    m = g @ g.conj().T
    return states.validate(m / m.trace().real)


class TestJson:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
    @example(seed=None, rank=None)  # the family's pure state at eps = 0.25
    def test_round_trip(self, tmp_path_factory, seed, rank):
        # JSON holds each float's shortest repr, which reads back exactly
        rho = (initial_pure(0.25, 0.9) if seed is None
               else random_state(seed, rank))
        path = tmp_path_factory.mktemp("round_trip") / "state.json"
        states.save_state(rho, path)
        back = states.load_state(path)
        assert np.array_equal(back, rho)

    def test_schema_fields(self):
        blob = states.state_to_json(maximally_mixed())
        assert blob["dim"] == 4
        assert blob["re"][0][0] == 0.25
        assert blob["im"][2][2] == 0.0

    def test_reader_validates(self):
        bad = {"dim": 4,
               "re": np.diag([1.0, 1.0, 0.0, 0.0]).tolist(),
               "im": np.zeros((4, 4)).tolist()}
        with pytest.raises(InvalidState):
            states.state_from_json(bad)

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_reader_names_a_non_finite_entry(self, part, value):
        # 1j * inf has a nan real part: no warning, and check names it
        blob = states.state_to_json(maximally_mixed())
        blob[part][0][3] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidState, match="^matrix has a non-finite entry$"):
                states.state_from_json(blob)

    def test_reader_rejects_malformed(self):
        with pytest.raises(InvalidState, match="malformed state JSON"):
            states.state_from_json({"dim": 4, "re": [[1.0]]})
        # dim is a JSON integer or nothing: not truncated, parsed or cast
        good = states.state_to_json(maximally_mixed())
        for dim in (4.9, "4", 4.0, True):
            with pytest.raises(InvalidState, match="malformed state JSON: dim must be"):
                states.state_from_json({**good, "dim": dim})


TAMPERS = ("trace", "hermiticity", "negative", "non-finite")


def tampered_state(rng, kinds):
    """A random density matrix broken in each of the ways named in kinds."""
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    w = np.array([-0.2, 0.3, 0.4, 0.5]) if "negative" in kinds else rng.dirichlet(np.ones(4))
    m = (q * w) @ q.conj().T
    m = (m + m.conj().T) / 2.0
    if "trace" in kinds:
        m *= 1.5
    if "hermiticity" in kinds:
        m[0, 1] += 0.2
    if "non-finite" in kinds:
        m[rng.integers(4), rng.integers(4)] = rng.choice([np.nan, np.inf, -np.inf])
    return m


@settings(max_examples=100, deadline=None)
@given(kinds=st.lists(st.sets(st.sampled_from(TAMPERS), max_size=2), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_check_reports_the_first_failing_matrix(kinds, seed):
    # rule: a non-finite matrix first, wherever it sits; otherwise the
    # per-matrix diagnostics of the first failing matrix, named by index
    rng = np.random.default_rng(seed)
    stack = np.array([tampered_state(rng, k) for k in kinds])
    per = [states.check(m) for m in stack]
    assert [bool(p) for p in per] == [bool(k) for k in kinds]
    non_finite = [i for i, k in enumerate(kinds) if "non-finite" in k]
    failing = [i for i, p in enumerate(per) if p]
    if non_finite:
        expect = [f"matrix {non_finite[0]} of the stack has a non-finite entry"]
    elif failing:
        expect = [f"matrix {failing[0]} of the stack: {d}" for d in per[failing[0]]]
    else:
        expect = []
    assert states.check(stack) == expect
    if not failing:
        assert np.array_equal(states.validate(stack[0]), stack[0])
