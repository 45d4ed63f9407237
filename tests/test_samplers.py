import numpy as np
import pytest
from scipy.special import logit

from mrpkit.design import ModelSpec, build_layout
from mrpkit.model import LogDensityModel, PriorConfig
from mrpkit.samplers import (
    ConvergenceError,
    PosteriorDraws,
    fit_map,
    load_draws,
    sample_laplace,
    sample_mcmc,
    save_draws,
)
from mrpkit.synthetic import Scenario, draw_truth, make_cells, make_states, \
    simulate_poll

from conftest import make_cell_table, make_state_table


class _BernoulliStub:
    """Single intercept, Bernoulli(k of n), flat prior."""

    def __init__(self, k, n):
        self.k, self.n = float(k), float(n)
        self.n_params = 1

    def log_posterior(self, x):
        eta = x[0]
        return self.k * eta - self.n * np.logaddexp(0.0, eta)

    def grad(self, x):
        from scipy.special import expit
        return np.array([self.k - self.n * expit(x[0])])


class _GaussianStub:
    """exp(-0.5 (x-mu)' P (x-mu)) for a fixed precision P."""

    def __init__(self, mu, precision):
        self.mu = np.asarray(mu, dtype=float)
        self.P = np.asarray(precision, dtype=float)
        self.n_params = len(self.mu)

    def log_posterior(self, x):
        d = x - self.mu
        return -0.5 * float(d @ self.P @ d)

    def grad(self, x):
        return -self.P @ (x - self.mu)


# ---------------------------------------------------------------------------
# fit_map

def test_map_complete_pooling_closed_form():
    # 75 of 100 voting 1 under a flat prior: mode at logit(0.75)
    model = _BernoulliStub(75, 100)
    x, L = fit_map(model)
    assert abs(x[0] - logit(0.75)) < 1e-6
    assert abs(x[0] - 1.0986) < 1e-3


def test_map_prior_mode_is_zero():
    # no data, standard-normal prior: mode at the origin
    model = _GaussianStub(np.zeros(3), np.eye(3))
    x, L = fit_map(model)
    assert np.max(np.abs(x)) < 1e-8


@pytest.mark.parametrize("start", ["zeros", "initial_point"])
def test_map_beats_truth_on_synthetic(start):
    # zeros is a far start for the hierarchy, initial_point a near one
    sc = Scenario(S=10, rung="M1", n=2000, seed=4)
    states = make_states(sc)
    cells = make_cells(sc, states)
    truth = draw_truth(sc, states, cells)
    ds = simulate_poll(truth, sc, states, cells)
    model = LogDensityModel(ds, sc.spec)
    init = model.initial_point() if start == "initial_point" else start
    x, L = fit_map(model, init=init)
    assert model.log_posterior(x) >= model.log_posterior(truth)


def test_map_nonconvergence_carries_best_point():
    class Unbounded:
        n_params = 1

        def log_posterior(self, x):
            return float(x[0])

        def grad(self, x):
            return np.ones(1)

    with pytest.raises(ConvergenceError) as exc:
        fit_map(Unbounded(), max_iter=20)
    assert exc.value.best_point is not None


def test_map_flat_hessian_names_direction():
    class Flat:
        n_params = 2

        def log_posterior(self, x):
            return -0.5 * x[0] ** 2  # x[1] unidentified

        def grad(self, x):
            return np.array([-x[0], 0.0])

    with pytest.raises(ConvergenceError, match="positive definite"):
        fit_map(Flat())


# ---------------------------------------------------------------------------
# sample_laplace

def test_laplace_sd_from_hessian():
    # negative Hessian 4 (curvature -4): sd = 1/2
    L = np.array([[2.0]])
    draws = sample_laplace(np.array([1.0]), L, 1000, seed=5)
    sd = draws.draws.std(ddof=1)
    assert abs(sd - 0.5) < 0.025
    assert abs(draws.draws.mean() - 1.0) < 0.05


def test_laplace_deterministic():
    L = np.linalg.cholesky(np.array([[2.0, 0.3], [0.3, 1.0]]))
    a = sample_laplace(np.zeros(2), L, 50, seed=9)
    b = sample_laplace(np.zeros(2), L, 50, seed=9)
    assert np.array_equal(a.draws, b.draws)


def test_laplace_matches_mcmc_on_gaussian_target():
    # exactly Gaussian posterior: the Laplace approximation is exact, so
    # the two samplers must agree within Monte Carlo error
    P = np.array([[2.0, 0.6], [0.6, 1.5]])
    mu = np.array([0.3, -0.7])
    model = _GaussianStub(mu, P)
    x, L = fit_map(model)
    lap = sample_laplace(x, L, 4000, seed=2)
    mc = sample_mcmc(model, chains=2, warmup=400, iters=2000, seed=3)
    cov = np.linalg.inv(P)
    sd = np.sqrt(np.diag(cov))
    assert np.all(np.abs(lap.draws.mean(axis=0) - mc.draws.mean(axis=0))
                  < 0.08 * sd)
    assert np.all(np.abs(lap.draws.std(axis=0) / mc.draws.std(axis=0) - 1.0)
                  < 0.1)


# ---------------------------------------------------------------------------
# sample_mcmc

def test_mcmc_standard_normal_target():
    model = _GaussianStub(np.zeros(1), np.eye(1))
    draws = sample_mcmc(model, chains=4, warmup=500, iters=2000, seed=0)
    x = draws.draws[:, 0]
    assert abs(x.mean()) < 0.05
    assert 0.95 < x.std(ddof=1) < 1.05


def test_mcmc_diagnostics_attached():
    model = _GaussianStub(np.zeros(2), np.eye(2))
    draws = sample_mcmc(model, chains=2, warmup=300, iters=400, seed=1)
    d = draws.diagnostics
    assert d is not None
    assert np.all(np.asarray(d["rhat"]) < 1.1)
    assert d["divergent"] == 0
    assert "converged" in d


def test_mcmc_deterministic_given_seed():
    model = _GaussianStub(np.zeros(2), np.eye(2))
    a = sample_mcmc(model, chains=2, warmup=100, iters=100, seed=42)
    b = sample_mcmc(model, chains=2, warmup=100, iters=100, seed=42)
    assert np.array_equal(a.draws, b.draws)


def test_mcmc_diffuse_init():
    model = _GaussianStub(np.array([3.0]), np.array([[4.0]]))
    draws = sample_mcmc(model, chains=2, warmup=500, iters=1000, seed=6,
                        init="diffuse")
    assert abs(draws.draws.mean() - 3.0) < 0.1


def test_mcmc_evaluates_each_point_once():
    # the step-size searches start from the log density and gradient the
    # chain already holds
    model = _GaussianStub(np.zeros(2), np.eye(2))
    seen = {"grad": [], "log_posterior": []}
    for name, calls in seen.items():
        def counted(x, fn=getattr(model, name), calls=calls):
            calls.append(np.asarray(x, dtype=float).tobytes())
            return fn(x)
        setattr(model, name, counted)
    sample_mcmc(model, chains=2, warmup=100, iters=50, seed=3,
                init="diffuse")
    for name, calls in seen.items():
        assert len(calls) == len(set(calls)), name


@pytest.mark.parametrize("init", ["zeros", np.zeros(1)],
                         ids=["name", "array"])
def test_mcmc_rejects_unknown_init(init):
    with pytest.raises(ValueError, match="unknown init"):
        sample_mcmc(_GaussianStub(np.zeros(1), np.eye(1)), init=init)


# ---------------------------------------------------------------------------
# persistence

def test_save_load_round_trip(tmp_path, small_dataset):
    spec = ModelSpec("M1")
    model = LogDensityModel(small_dataset, spec)
    draws = sample_mcmc(model, chains=2, warmup=100, iters=80, seed=0)
    bp, jp = tmp_path / "d.bin", tmp_path / "d.json"
    save_draws(draws, bp, jp)
    back = load_draws(bp, jp, model.layout)
    assert np.array_equal(back.draws, draws.draws)
    assert back.n_chains == draws.n_chains == 2


def test_load_rejects_layout_mismatch(tmp_path, small_dataset):
    spec = ModelSpec("M1")
    model = LogDensityModel(small_dataset, spec)
    draws = sample_mcmc(model, chains=2, warmup=50, iters=40, seed=0)
    bp, jp = tmp_path / "d.bin", tmp_path / "d.json"
    save_draws(draws, bp, jp)
    other = build_layout(ModelSpec("M2"), small_dataset.states)
    with pytest.raises(ValueError):
        load_draws(bp, jp, other)


def test_posterior_draws_by_chain():
    d = PosteriorDraws(np.arange(12.0).reshape(6, 2), 2)
    assert d.n_chains == 2
    assert d.by_chain().shape == (2, 3, 2)
    assert np.array_equal(d.by_chain()[1], [[6, 7], [8, 9], [10, 11]])
    with pytest.raises(ValueError, match="equal chains"):
        PosteriorDraws(np.zeros((5, 2)), 2)
