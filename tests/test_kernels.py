"""The closest-separable-state kernels: the parametrization and the analytic
gradient of the penalized objective against central differences."""

import numpy as np
import pytest

from qdephase import kernels, refsearch


def random_density(rng, rank=4):
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    m = g @ g.conj().T
    return m / m.trace().real


def test_sigma_from_params_is_state():
    rng = np.random.default_rng(25)
    for _ in range(100):
        sig = kernels.sigma_from_params(rng.standard_normal(16))
        assert abs(sig.trace().real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(sig).min() > -1e-13


def _clip_spectrum_reference(w):
    """The clip written for spectra in any order: negatives to zero, then
    zero everything below the relative noise floor of the largest value."""
    w = np.where(w > 0.0, w, 0.0)
    top = w.max(initial=0.0)
    return np.where(w >= kernels.NOISE_FLOOR_REL * top, w, 0.0)


def test_clip_spectrum_matches_reference():
    rng = np.random.default_rng(28)
    noise = (0.0, -0.0, 1e-17, -1e-17)
    spectra = [np.zeros(4), np.full(4, -0.0), -np.sort(rng.random(4))[::-1],
               np.array([-1e-17, -0.0, 0.0, 1e-17]), np.array([-0.2, -0.1, -0.0, 0.0]),
               np.array([0.0, kernels.NOISE_FLOOR_REL, 0.5, 1.0])]
    for _ in range(2000):
        w = rng.random(4) * 10.0 ** rng.integers(-20, 1, 4)
        w[rng.random(4) < 0.4] = rng.choice(noise)
        spectra.append(np.sort(w))
    for w in spectra:
        got = kernels._clip_spectrum(w.copy())
        expect = _clip_spectrum_reference(w)
        assert np.array_equal(got, expect)
        assert np.array_equal(np.signbit(got), np.signbit(expect))
    # a stack clips each spectrum against its own top
    stack = np.array(spectra)
    got = kernels._clip_spectrum(stack.copy())
    expect = np.array([_clip_spectrum_reference(w) for w in spectra])
    assert np.array_equal(got, expect)
    assert np.array_equal(np.signbit(got), np.signbit(expect))


def test_stacked_kernels_equal_single_matrix_calls():
    rng = np.random.default_rng(29)
    rho = np.array([random_density(rng, rank) for rank in (1, 2, 3, 4) for _ in range(5)])
    sigma = np.array([random_density(rng) for _ in rho])
    s, w, v = kernels.psd_sqrt_with_min(rho)
    fid = kernels.sqrt_fidelity(s, sigma)
    assert s.shape == rho.shape and w.shape == v.shape[:-1] and fid.shape == (len(rho),)
    for k, m in enumerate(rho):
        sk, wk, vk = kernels.psd_sqrt_with_min(m)
        assert np.array_equal(s[k], sk)
        assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)
        assert fid[k] == kernels.sqrt_fidelity(sk, sigma[k])
    assert isinstance(kernels.sqrt_fidelity(s[0], sigma[0]), float)


def test_degenerate_params_guarded():
    zero = np.zeros(16)
    assert kernels.sigma_from_params(zero) is None
    value, grad = kernels.css_objective(zero, np.eye(4, dtype=complex) / 2.0, 1e3)
    assert value == 1e6
    assert np.array_equal(grad, np.zeros(16))


def test_objective_value_matches_its_parts():
    rng = np.random.default_rng(26)
    sqrt_rho, *_ = kernels.psd_sqrt_with_min(random_density(rng))
    for _ in range(50):
        x = rng.standard_normal(16)
        sigma = kernels.sigma_from_params(x)
        pt = np.linalg.eigvalsh(kernels._partial_transpose(sigma))
        expect = (1.0 - kernels.sqrt_fidelity(sqrt_rho, sigma)
                  + 1e3 * (np.minimum(pt, 0.0) ** 2).sum())
        assert abs(kernels.css_objective(x, sqrt_rho, 1e3)[0] - expect) < 1e-12


def _central_difference(x, sqrt_rho, weight, h):
    """Two-point central differences of the objective value, slot by slot."""
    grad = np.empty(16)
    for k in range(16):
        step = np.zeros(16)
        step[k] = h
        grad[k] = (kernels.css_objective(x + step, sqrt_rho, weight)[0]
                   - kernels.css_objective(x - step, sqrt_rho, weight)[0]) / (2.0 * h)
    return grad


def _point(rng, separable):
    """Parameters whose sigma lacks (separable) or has a partial-transpose
    eigenvalue below zero, kept 1e-3 away from the kink at zero."""
    while True:
        if separable:
            # PT eigenvalues of a state are >= -1/2, so this mixture's are >= 0.1
            sigma = 0.2 * random_density(rng) + 0.8 * np.eye(4) / 4.0
            x = refsearch._params_from_matrix(sigma)
        else:
            x = rng.standard_normal(16)
        ptmin = kernels.pt_min_eig(kernels.sigma_from_params(x))
        if (ptmin > 1e-3) if separable else (ptmin < -1e-3):
            return x


@pytest.mark.parametrize("rank", [1, 4], ids=["pure_rho", "full_rank_rho"])
@pytest.mark.parametrize("separable", [False, True], ids=["pt_negative", "pt_positive"])
@pytest.mark.parametrize("weight", [1e3, 1e9])
def test_gradient_matches_central_differences(rank, separable, weight):
    rng = np.random.default_rng([27, rank, int(separable), int(np.log10(weight))])
    sqrt_rho, *_ = kernels.psd_sqrt_with_min(random_density(rng, rank))
    for _ in range(3):
        x = _point(rng, separable)
        _, grad = kernels.css_objective(x, sqrt_rho, weight)
        numeric = _central_difference(x, sqrt_rho, weight, 1e-6)
        scale = max(1.0, np.abs(grad).max())
        assert np.abs(grad - numeric).max() <= 1e-6 * scale


def test_purity_of_a_stack_is_each_matrix_vdot():
    rng = np.random.default_rng(26)
    stack = np.array([random_density(rng, rank)
                      for rank in (1, 2, 3, 4) for _ in range(50)])
    expect = np.array([np.vdot(m, m).real for m in stack])
    assert np.array_equal(kernels.purity(stack), expect)
    for m, p in zip(stack, expect):
        assert isinstance(kernels.purity(m), float) and kernels.purity(m) == p
