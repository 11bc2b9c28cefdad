import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from mirrorcool import (
    EffectiveBath,
    FockConfig,
    NumericalError,
    StabilityError,
    TruncationError,
    ValidationError,
    bath_from_rates,
    build_generator,
    closed_form_moments,
    evolve_to_steady,
    lyapunov_moments,
)
from mirrorcool import fock as fock_mod
from mirrorcool.fock import SHIFTS, TAIL_GUARD, _solve, _sweep, ladder, required_dim
from mirrorcool.steady_state import drift_matrix


def desk_bath(g=20.0, Gamma=40.0, n_bar=2.0, omega_m=10.0, phi=-math.pi / 2):
    return bath_from_rates(omega_m=omega_m, gamma_m=1.0, Gamma=Gamma, eta=1.0,
                           n_bar=n_bar, g=g, phi=phi)


def to_csr(C):
    """The stencil ``C`` as a sparse Liouvillian over row-major vec(rho)."""
    dim = C.shape[1]
    index = np.arange(dim * dim).reshape(dim, dim)
    rows, cols, vals = [], [], []
    for c, (dm, dn) in zip(C, SHIFTS):
        m, n = np.nonzero(c)
        rows.append(index[m, n])
        cols.append(index[m + dm, n + dn])
        vals.append(c[m, n])
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim * dim, dim * dim),
    )


def generator(bath, dim):
    return to_csr(build_generator(bath, dim))


def kron_generator(bath, dim):
    """Reference assembly: the five term-groups as Kronecker superoperators."""
    a = sparse.csr_matrix(ladder(dim))
    ad = a.conj().T.tocsr()
    eye = sparse.identity(dim, format="csr")

    def pre(op):
        return sparse.kron(op, eye, format="csr")

    def post(op):
        return sparse.kron(eye, op.T, format="csr")

    def sandwich(left, right):
        return sparse.kron(left, right.T, format="csr")

    def dissipator(lind):
        ldl = (lind.conj().T @ lind).tocsr()
        return 2 * sandwich(lind, lind.conj().T) - pre(ldl) - post(ldl)

    gamma, N, M = bath.gamma, bath.N, bath.M
    s = bath.squeeze_coeff
    a2, ad2, num = (a @ a).tocsr(), (ad @ ad).tocsr(), (ad @ a).tocsr()

    L = (gamma / 2) * (N + 1) * dissipator(a)
    L = L + (gamma / 2) * N * dissipator(ad)
    L = L - (gamma / 2) * M * (2 * sandwich(ad, ad) - pre(ad2) - post(ad2))
    L = L - (gamma / 2) * np.conj(M) * (2 * sandwich(a, a) - pre(a2) - post(a2))
    L = L - 1j * bath.omega_m * (pre(num) - post(num))
    L = L - s * ((pre(a2) - post(a2)) - (pre(ad2) - post(ad2)))
    return L.tocsr()


def lindblad(L, rho):
    """The generator applied to a density matrix."""
    return (L @ rho.ravel()).reshape(rho.shape)


def moments(v):
    """(<a>, <a^2>, <a^dag a>) of a vectorized state (or its derivative)."""
    dim = math.isqrt(v.size)
    a = ladder(dim)
    rho = v.reshape(dim, dim)
    return np.array([np.trace(op @ rho) for op in (a, a @ a, a.T @ a)])


def random_density(rng, dim, support):
    """Hermitian unit-trace matrix supported on the lowest ``support`` levels."""
    block = rng.normal(size=(support, support)) + 1j * rng.normal(size=(support, support))
    block = block @ block.conj().T
    rho = np.zeros((dim, dim), complex)
    rho[:support, :support] = block / np.trace(block)
    return rho


def test_ladder_operator():
    a = ladder(4)
    state = np.zeros(4)
    state[2] = 1.0
    np.testing.assert_allclose(a @ state, math.sqrt(2) * np.eye(4)[1])
    np.testing.assert_allclose(a.conj().T @ a, np.diag([0.0, 1.0, 2.0, 3.0]))


def test_required_dim_bounds_thermal_tail():
    # exp(-1/n_bar) underflows to 0 below n_bar ~ 1.4e-3
    for n_bar in (1e-3, 0.5, 2.0, 5.0):
        dim = required_dim(n_bar)
        # the truncated thermal state, renormalized to unit trace
        p = np.exp(-np.arange(dim) / n_bar)
        p /= p.sum()
        assert p[-1] * (1 + 1e-12) <= 1.05 * TAIL_GUARD


def test_pure_decay_limit():
    # N = M = 0, no oscillator term, no squeeze term: <n>(t) = exp(-gamma*t)
    bath = EffectiveBath(gamma=2.0, N=0.0, M=0j, squeeze_coeff=0.0, omega_m=0.0,
                         gamma_m=2.0, g=0.0, phi=-math.pi / 2, Gamma=0.0,
                         eta=1.0, n_bar=0.0)
    L = generator(bath, 12)
    rho0 = np.zeros((12, 12), complex)
    rho0[1, 1] = 1.0
    for t in (0.1, 0.5, 1.0):
        v = expm_multiply(L * t, rho0.ravel())
        n_t = moments(v)[2].real
        assert n_t == pytest.approx(math.exp(-2.0 * t), rel=1e-10)


def test_generator_is_trace_preserving(rng):
    L = generator(desk_bath(), 20)
    eye = np.eye(20, dtype=complex) / 20
    assert abs(np.trace(lindblad(L, eye))) < 1e-14
    for _ in range(5):
        rho = random_density(rng, 20, 16)
        assert abs(np.trace(lindblad(L, rho))) < 1e-12


def test_generator_is_linear(rng):
    L = generator(desk_bath(), 16)
    r1 = random_density(rng, 16, 12)
    r2 = random_density(rng, 16, 12)
    lhs = lindblad(L, 0.7 * r1 + 1.9 * r2)
    rhs = 0.7 * lindblad(L, r1) + 1.9 * lindblad(L, r2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_generator_preserves_hermiticity(rng):
    L = generator(desk_bath(), 16)
    rho = random_density(rng, 16, 12)
    out = lindblad(L, rho)
    np.testing.assert_allclose(out, out.conj().T, atol=1e-13)


@pytest.mark.parametrize("phi,g", [(-math.pi / 2, 20.0), (0.7, 0.5), (2.0, 0.5)])
def test_moment_flow_matches_coefficient_odes(rng, phi, g):
    # central cross-oracle check: Tr(op * L(rho)) must reproduce the
    # moment ODEs of the coefficient block for any state away from the
    # truncation boundary:
    #   d<a>     = -(gamma/2 + i*omega_m)<a> + 2 s <a^dag>
    #   d<a^2>   = -(gamma + 2i*omega_m)<a^2> + gamma*M + s(4<n> + 2)
    #   d<n>     = -gamma<n> + gamma*N + 2 s (<a^2> + <a^dag 2>)
    bath = desk_bath(g=g, phi=phi)
    dim = 30
    L = generator(bath, dim)
    a = ladder(dim)
    for _ in range(5):
        rho = random_density(rng, dim, 12)
        mean_a = np.trace(a @ rho)
        mean_a2 = np.trace(a @ a @ rho)
        mean_n = np.trace(a.conj().T @ a @ rho)
        got = moments(L @ rho.ravel())
        s = bath.squeeze_coeff
        want_a = -(bath.gamma / 2 + 1j * bath.omega_m) * mean_a + 2 * s * np.conj(mean_a)
        want_a2 = (
            -(bath.gamma + 2j * bath.omega_m) * mean_a2
            + bath.gamma * bath.M
            + s * (4 * mean_n + 2)
        )
        want_n = (
            -bath.gamma * mean_n
            + bath.gamma * bath.N
            + 2 * s * (mean_a2 + np.conj(mean_a2))
        )
        assert got[0] == pytest.approx(want_a, rel=1e-10, abs=1e-10)
        assert got[1] == pytest.approx(want_a2, rel=1e-10, abs=1e-10)
        assert got[2] == pytest.approx(want_n, rel=1e-10, abs=1e-10)


def test_quadrature_mean_flow_matches_drift_matrix(rng):
    # the first-moment flow of the generator must reproduce the drift used
    # by the Lyapunov and Monte Carlo routes
    bath = desk_bath()
    L = generator(bath, 30)
    a = ladder(30)
    A = drift_matrix(bath)
    for _ in range(5):
        rho = random_density(rng, 30, 12)
        mean_a = np.trace(a @ rho)
        d_mean_a = moments(L @ rho.ravel())[0]
        xp = np.array([mean_a.real, mean_a.imag])
        d_xp = np.array([d_mean_a.real, d_mean_a.imag])
        np.testing.assert_allclose(d_xp, A @ xp, rtol=1e-10, atol=1e-12)


def test_thermal_bath_fixed_point():
    # Gamma = g = 0 with n_bar = 2: the high-temperature coefficient block
    # settles at <n> = n_bar - 1/2 (the leading Bose-Einstein expansion),
    # with the equipartition variances n_bar/2
    bath = desk_bath(g=0.0, Gamma=0.0, n_bar=2.0)
    sol = evolve_to_steady(bath, FockConfig(dim=60))
    assert sol.mean_n == pytest.approx(1.5, abs=1e-6)
    assert sol.var_x == pytest.approx(1.0, abs=1e-6)
    assert sol.var_p == pytest.approx(1.0, abs=1e-6)
    assert abs(sol.mean_a) < 1e-8
    assert sol.min_eigenvalue > -1e-12


def test_feedback_steady_state_matches_closed_forms():
    bath = desk_bath()  # n_bar=2, Gamma=40, g=20: lindblad-positive regime
    exact = closed_form_moments(bath)
    sol = evolve_to_steady(bath, FockConfig(dim=66))
    assert sol.var_x == pytest.approx(exact.var_x, rel=1e-5)
    assert sol.var_p == pytest.approx(exact.var_p, rel=1e-5)
    assert sol.residual <= sol.residual_bound
    assert sol.trace_error < 1e-10
    assert sol.hermiticity_error < 1e-12
    assert sol.tail_population < 1e-10
    # symmetrized cross moment agrees with the Lyapunov oracle
    cov = sol.mean_a2.imag / 2
    assert cov == pytest.approx(lyapunov_moments(bath).cov_xp_sym, rel=1e-4)


def test_truncation_convergence():
    bath = desk_bath()
    a = evolve_to_steady(bath, FockConfig(dim=74))
    b = evolve_to_steady(bath, FockConfig(dim=94))
    assert a.var_x == pytest.approx(b.var_x, abs=1e-8)
    assert a.var_p == pytest.approx(b.var_p, abs=1e-8)
    # at dim 94 the truncation error is below 1e-12 of the variances
    exact = closed_form_moments(bath)
    assert b.var_x == pytest.approx(exact.var_x, rel=1e-10)
    assert b.var_p == pytest.approx(exact.var_p, rel=1e-10)


def test_initial_state_independence():
    # the transient from the ground state relaxes onto the solved state;
    # populations decay at gamma = 21, so by t = 1 about 1e-10 is left
    bath = desk_bath()
    sol = evolve_to_steady(bath, FockConfig(dim=66))
    ground = np.zeros((66, 66), complex)
    ground[0, 0] = 1.0
    v = expm_multiply(generator(bath, 66), ground.ravel())  # rho(t = 1)
    np.testing.assert_allclose(v.reshape(66, 66), sol.rho, rtol=0, atol=1e-8)
    mean_a, mean_a2, mean_n = moments(v)
    var_x = (2 * mean_n.real + 1 + 2 * mean_a2.real) / 4 - mean_a.real**2
    assert var_x == pytest.approx(sol.var_x, abs=1e-8)


def test_tail_guard_rejects_small_truncation():
    bath = desk_bath(n_bar=3.0)
    with pytest.raises(TruncationError):
        evolve_to_steady(bath, FockConfig(dim=40))


def perturbed(C, row, col, factor):
    """The generator with one matrix entry scaled by ``factor``."""
    dim = C.shape[1]
    (m, n), (p, q) = divmod(row, dim), divmod(col, dim)
    C = C.copy()
    C[SHIFTS.index((p - m, q - n)), m, n] *= factor
    return C


def test_singular_or_nonfinite_solve_raises():
    bath = desk_bath()
    C = build_generator(bath, 30)
    with pytest.raises(NumericalError, match="singular or non-finite"):
        _solve(bath, perturbed(C, 5, 5, math.nan))
    # no equation left on the <0|rho|1> coherence: the system is singular
    zeroed = C.copy()
    for k, (dm, dn) in enumerate(SHIFTS):
        m, n = 0 - dm, 1 - dn  # the entry of row (m, n) that reads rho[0, 1]
        if 0 <= m < 30 and 0 <= n < 30:
            zeroed[k, m, n] = 0
    assert to_csr(zeroed)[:, 1].nnz == 0 < to_csr(C)[:, 1].nnz
    with pytest.raises(NumericalError, match="singular or non-finite"):
        _solve(bath, zeroed)


def test_residual_over_bound_raises():
    # the solve drops the <0|rho|0> row, which only a trace-preserving
    # generator implies; perturbing it leaves the residual on that row
    bath = desk_bath()
    with pytest.raises(NumericalError, match="residual"):
        _solve(bath, perturbed(build_generator(bath, 66), 0, 0, 1 + 1e-6))


def test_trace_check_rejects_a_misnormalized_solve(monkeypatch):
    monkeypatch.setattr(fock_mod, "_sweep", lambda C: 1.001 * _sweep(C))
    with pytest.raises(NumericalError, match="trace error"):
        evolve_to_steady(desk_bath(), FockConfig(dim=66))


def test_hermiticity_check_rejects_a_non_hermitian_generator():
    # [n, rho] is trace-preserving but maps Hermitian to anti-Hermitian
    bath = desk_bath()
    k = np.arange(66.0)
    bad = build_generator(bath, 66)
    bad[SHIFTS.index((0, 0))] += 1e-3 * (k[:, None] - k[None, :])
    with pytest.raises(NumericalError, match="hermiticity"):
        _solve(bath, bad)


# a bath of each kind: real M, complex M (cos(phi) != 0) and a stable bath
# that is not Lindblad-positive
STENCIL_BATHS = {
    "real_M": desk_bath(),
    "complex_M": desk_bath(g=0.5, phi=0.7),
    "obtuse_phase": desk_bath(g=0.5, phi=2.0),
    "not_positive": bath_from_rates(omega_m=10.0, gamma_m=1.0, Gamma=0.1, eta=1.0,
                                    n_bar=0.0, g=0.1, phi=-math.pi / 2),
}


@pytest.mark.parametrize("name", STENCIL_BATHS)
@pytest.mark.parametrize("dim", [4, 5, 11, 40])
def test_generator_matches_the_kron_assembly(name, dim):
    bath = STENCIL_BATHS[name]
    C = build_generator(bath, dim)
    assert C.shape == (len(SHIFTS), dim, dim)
    # the stencil reads no level outside the box
    k = np.arange(dim)
    for c, (dm, dn) in zip(C, SHIFTS):
        outside = ~(((k + dm >= 0) & (k + dm < dim))[:, None]
                    & ((k + dn >= 0) & (k + dn < dim))[None, :])
        assert not c[outside].any()
    want = kron_generator(bath, dim).toarray()
    # each coefficient is a product of a few rounded factors
    np.testing.assert_allclose(to_csr(C).toarray(), want, rtol=0,
                               atol=1e-15 * np.abs(want).max())


@pytest.mark.parametrize("name", STENCIL_BATHS)
@pytest.mark.parametrize("dim", [8, 13, 20])
def test_sweep_matches_a_dense_solve(name, dim):
    # the full Liouvillian with the <0|rho|0> row replaced by the trace row
    C = build_generator(STENCIL_BATHS[name], dim)
    L = to_csr(C).toarray()
    L[0] = np.eye(dim).ravel()
    rhs = np.zeros(dim * dim, complex)
    rhs[0] = 1.0
    want = np.linalg.solve(L, rhs).reshape(dim, dim)
    rho = _sweep(C)
    np.testing.assert_allclose(rho, want, rtol=0, atol=1e-12)
    # m - n odd: the odd chain has no source, so these entries are exactly 0
    odd = np.add.outer(np.arange(dim), np.arange(dim)) % 2 == 1
    assert np.all(rho[odd] == 0)


def test_negative_eigenvalue_warning_outside_the_positive_region():
    # n_bar = 0, g = Gamma = 0.1: stable but not completely positive (gap
    # about -0.248), so the steady state is not a density matrix
    bath = bath_from_rates(omega_m=10.0, gamma_m=1.0, Gamma=0.1, eta=1.0,
                           n_bar=0.0, g=0.1, phi=-math.pi / 2)
    with pytest.warns(UserWarning, match="expected physics"):
        sol = evolve_to_steady(bath, FockConfig(dim=150))
    assert sol.min_eigenvalue < -1e-8


def test_negative_tail_is_truncation_error():
    # the same bath at dim 30: the last population is about -0.0094
    bath = bath_from_rates(omega_m=10.0, gamma_m=1.0, Gamma=0.1, eta=1.0,
                           n_bar=0.0, g=0.1, phi=-math.pi / 2)
    with pytest.raises(TruncationError, match="tail population -"):
        evolve_to_steady(bath, FockConfig(dim=30))


def test_config_validation():
    with pytest.raises(ValidationError):
        evolve_to_steady(desk_bath(), FockConfig(dim=3))


def test_required_dim_is_nondecreasing():
    dims = [required_dim(n_bar) for n_bar in np.logspace(-4, 12, 161)]
    assert all(a <= b for a, b in zip(dims, dims[1:]))
    # every level below the guard: no truncation resolves the state
    assert required_dim(1e11) > fock_mod.MAX_DIM


@pytest.mark.parametrize("n_bar", [25.0, 6e11])
def test_occupation_past_the_ceiling_is_refused(n_bar):
    with pytest.raises(ValidationError) as exc:
        evolve_to_steady(desk_bath(n_bar=n_bar))
    assert exc.value.field == "n_bar"


def test_default_dim_grows_until_the_tail_guard_holds():
    # required_dim(2) = 46 leaves a solved tail of 3e-9 on the desk bath
    bath = desk_bath()
    sol = evolve_to_steady(bath)
    assert sol.dim > required_dim(bath.n_bar) == 46
    assert abs(sol.tail_population) <= TAIL_GUARD
    assert sol.var_x == pytest.approx(closed_form_moments(bath).var_x, abs=1e-5)


def test_instability_is_reported_before_the_ceiling():
    # spring margin omega_m^2 - gamma_m*g*sin(phi) = 25 - 50 < 0 at n_bar 30
    bath = bath_from_rates(omega_m=5.0, gamma_m=10.0, Gamma=40.0, eta=1.0,
                           n_bar=30.0, g=5.0, phi=math.pi / 2)
    assert required_dim(bath.n_bar) > fock_mod.MAX_DIM
    with pytest.raises(StabilityError):
        evolve_to_steady(bath)
