import json
import re
import warnings

import numpy as np
import pytest
from scipy.special import logit

from mrpkit.design import ModelSpec, ParameterLayout, build_layout
from mrpkit.model import LogDensityModel, PriorConfig
from mrpkit.samplers import (
    METRIC_FLOOR,
    PosteriorDraws,
    _cholesky_solve,
    _DenseMetric,
    _DiagMetric,
    _find_reasonable_eps,
    damped_newton,
    fd_hessian,
    load_draws,
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

    def initial_point(self):
        return self.mu.copy()


def _newton(model, x0):
    """damped_newton to the mode of ``model`` on its finite-difference
    Hessian."""
    return damped_newton(model.log_posterior, model.grad,
                         lambda x: -fd_hessian(model.grad, x),
                         np.asarray(x0, dtype=float))


# ---------------------------------------------------------------------------
# damped_newton

def test_newton_complete_pooling_closed_form():
    # 75 of 100 voting 1 under a flat prior: mode at logit(0.75)
    x = _newton(_BernoulliStub(75, 100), np.zeros(1))
    assert abs(x[0] - logit(0.75)) < 1e-6
    assert abs(x[0] - 1.0986) < 1e-3


def test_newton_prior_mode_is_zero():
    # no data, standard-normal prior: mode at the origin
    x = _newton(_GaussianStub(np.zeros(3), np.eye(3)), np.ones(3))
    assert np.max(np.abs(x)) < 1e-8


@pytest.mark.parametrize("start", ["zeros", "initial_point"])
def test_newton_beats_truth_on_synthetic(start):
    # zeros is a far start for the hierarchy, initial_point a near one
    sc = Scenario(S=10, rung="M1", n=2000, seed=4)
    states = make_states(sc)
    cells = make_cells(sc, states)
    truth = draw_truth(sc, cells)
    ds = simulate_poll(truth, sc, cells)
    model = LogDensityModel(ds, sc.spec)
    init = model.initial_point() if start == "initial_point" \
        else np.zeros(model.n_params)
    x = _newton(model, init)
    assert model.log_posterior(x) >= model.log_posterior(truth)


def test_newton_damps_a_singular_hessian():
    # x[1] is unidentified, so the negative Hessian is singular: the damped
    # step still reaches x[0]'s mode and leaves x[1] where it started
    class Flat:
        def log_posterior(self, x):
            return -0.5 * (x[0] - 2.0) ** 2

        def grad(self, x):
            return np.array([2.0 - x[0], 0.0])

    x = _newton(Flat(), np.array([0.0, 0.7]))
    assert abs(x[0] - 2.0) < 1e-8
    assert x[1] == 0.7


@pytest.mark.parametrize("n", [1, 2, 108])
def test_cholesky_solve_equals_numpy_solve(n):
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n, n))
    A = B @ B.T + n * np.eye(n)
    b = rng.standard_normal(n)
    x = _cholesky_solve(np.linalg.cholesky(A), b)
    assert np.allclose(x, np.linalg.solve(A, b), rtol=1e-10, atol=1e-12)


def test_mcmc_matches_gaussian_target_moments():
    # exactly Gaussian posterior: its Laplace approximation N(mu, P^-1) is
    # exact, so the draws must match its closed-form mean and sd within
    # Monte Carlo error
    P = np.array([[2.0, 0.6], [0.6, 1.5]])
    mu = np.array([0.3, -0.7])
    mc = sample_mcmc(_GaussianStub(mu, P), chains=2, warmup=400, iters=2000,
                     seed=3)
    sd = np.sqrt(np.diag(np.linalg.inv(P)))
    assert np.all(np.abs(mc.draws.mean(axis=0) - mu) < 0.08 * sd)
    assert np.all(np.abs(mc.draws.std(axis=0) / sd - 1.0) < 0.1)


# ---------------------------------------------------------------------------
# the dense metric

def _rotation(n, seed):
    """A random n x n orthogonal matrix."""
    return np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (n, n)))[0]


def test_dense_metric_is_the_precision_on_a_soft_direction():
    # 1.538e-3 is M2's beta[0] + slope ridge under the weak prior at S = 50;
    # the metric keeps both eigenvalues as they are, not clipped to 0.01
    U = _rotation(2, 0)
    A = U @ np.diag([1.538e-3, 1e-5]) @ U.T
    metric = _DenseMetric(A)
    for p in np.random.default_rng(1).standard_normal((5, 2)):
        v = np.linalg.solve(A, p)
        np.testing.assert_allclose(metric.velocity(p), v, rtol=1e-12)
        assert metric.kinetic(p) == pytest.approx(0.5 * p @ v, rel=1e-12)


def test_dense_metric_takes_the_magnitude_of_a_negative_eigenvalue():
    # the Hessian at the red/blue world's center has an eigenvalue -4.25
    w, U = np.array([-4.25, 2.0]), _rotation(2, 2)
    metric = _DenseMetric(U @ np.diag(w) @ U.T)
    p = np.array([0.3, -1.7])
    np.testing.assert_allclose(metric.velocity(p),
                               U @ ((U.T @ p) / np.abs(w)), rtol=1e-12)
    assert metric.kinetic(p) > 0


def test_dense_metric_floors_a_null_direction():
    # eigenvalues 0 and 2: the null direction takes METRIC_FLOOR of the
    # largest, so every quantity stays finite
    A = np.ones((2, 2))
    metric = _DenseMetric(A)
    p = np.array([1.0, -1.0]) / np.sqrt(2.0)
    v = metric.velocity(p)
    assert np.all(np.isfinite(v))
    np.testing.assert_allclose(v, p / (2.0 * METRIC_FLOOR), rtol=1e-5)
    assert np.isfinite(metric.kinetic(p))
    assert np.all(np.isfinite(metric.sample(np.random.default_rng(0))))


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


@pytest.mark.parametrize("layout,label", [
    (None, "params[2]"),
    (ParameterLayout((("beta", 1), ("sigma_cat", 1)), 2, ModelSpec()),
     "sigma_cat"),
])
def test_mcmc_warning_names_the_worst_parameters(layout, label):
    # sds 1 and 100 under the unit metric, with no warmup to adapt it: the
    # wide coordinate barely moves, and the warning names it by its label
    model = _GaussianStub(np.zeros(2), np.diag([1.0, 1e-4]))
    model.layout = layout
    d = sample_mcmc(model, chains=2, warmup=0, iters=100, seed=0,
                    init="diffuse").diagnostics
    assert not d["converged"]
    assert np.argmin(d["ess"]) == np.argmax(d["rhat"]) == 1
    assert d["warnings"][-1] == (
        f"R-hat > 1.1 or ESS < 100: R-hat {d['rhat'][1]:.3f} at {label}, "
        f"ESS {d['ess'][1]:.0f} at {label}")


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


def test_mcmc_diffuse_metric_whitens_far_apart_scales():
    # sds 0.1 and 10: the adapted diagonal metric holds the variances, so
    # the whitened target takes steps near 1 (0.89-1.51 over seeds 0-19).
    # Inverse variances leave steps near 0.01, and the unit metric with no
    # adaptation near 0.13
    model = _GaussianStub(np.zeros(2), np.diag([0.1 ** -2, 10.0 ** -2]))
    draws = sample_mcmc(model, chains=2, warmup=300, iters=100, seed=0,
                        init="diffuse")
    for eps in draws.diagnostics["step_size"]:
        assert 0.6 < eps < 2.0


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


class _NanBeyondOneStub:
    """Standard normal inside |x| <= 1, NaN log density beyond; the
    gradient stays finite, so only the energy shows the NaN."""

    n_params = 1

    def log_posterior(self, x):
        return -0.5 * float(x @ x) if abs(x[0]) <= 1.0 else np.nan

    def grad(self, x):
        return -x


@pytest.mark.parametrize("seed", range(5))
def test_step_size_search_rejects_nan_energy(seed):
    # a trial that lands where the log density is NaN is rejected, so the
    # search stops near the step that leaves |x| <= 1; counted as accepted,
    # it doubled to 2**50
    model = _NanBeyondOneStub()
    q = np.zeros(1)
    eps = _find_reasonable_eps(model, q, model.log_posterior(q),
                               model.grad(q), _DiagMetric(np.ones(1)),
                               np.random.default_rng(seed))
    assert 1e-3 < eps < 100.0


def test_mcmc_keeps_expected_overflow_quiet():
    # so steep a target that the kinetic energy overflows: the trajectories
    # are counted divergent, and no RuntimeWarning reaches the caller
    class Steep:
        n_params = 2

        def log_posterior(self, x):
            with np.errstate(over="ignore"):
                return -0.5e150 * float(x @ x)

        def grad(self, x):
            with np.errstate(over="ignore"):
                return -1e150 * x

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = sample_mcmc(Steep(), chains=1, warmup=20, iters=20, seed=0,
                            init="diffuse")
    assert draws.diagnostics["divergent"] > 0


def test_mcmc_map_init_needs_initial_point():
    with pytest.raises(ValueError, match="initial_point"):
        sample_mcmc(_BernoulliStub(3, 10))


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
    assert draws.layout is back.layout is model.layout


def test_save_refuses_draws_without_a_layout(tmp_path):
    draws = PosteriorDraws(np.zeros((4, 3)), 2)
    bp, jp = tmp_path / "d.bin", tmp_path / "d.json"
    with pytest.raises(ValueError, match="no parameter layout"):
        save_draws(draws, bp, jp)
    assert not bp.exists() and not jp.exists()


@pytest.mark.parametrize("problem", ["blocks a list", "n_params + 3"])
def test_load_refuses_blocks_or_n_params_not_the_layouts(tmp_path,
                                                         small_dataset,
                                                         problem):
    # a header whose blocks are not the layout's dict, or whose n_params is
    # not the layout's length with a draws.bin of that many columns
    model = LogDensityModel(small_dataset, ModelSpec("M1"))
    P = model.n_params
    draws = PosteriorDraws(np.zeros((4, P)), 2, model.layout)
    bp, jp = tmp_path / "d.bin", tmp_path / "d.json"
    save_draws(draws, bp, jp)
    header = json.loads(jp.read_text())
    if problem == "blocks a list":
        header["blocks"] = list(header["blocks"].items())
    else:
        header["n_params"] = P + 3
        np.zeros((4, P + 3)).tofile(bp)
    jp.write_text(json.dumps(header))
    with pytest.raises(ValueError,
                       match=re.escape(f"{jp}: blocks or n_params")):
        load_draws(bp, jp, model.layout)


def test_load_rejects_layout_mismatch(tmp_path, small_dataset):
    spec = ModelSpec("M1")
    model = LogDensityModel(small_dataset, spec)
    draws = sample_mcmc(model, chains=2, warmup=50, iters=40, seed=0)
    bp, jp = tmp_path / "d.bin", tmp_path / "d.json"
    save_draws(draws, bp, jp)
    other = build_layout(ModelSpec("M2"), small_dataset.cells.states)
    with pytest.raises(ValueError):
        load_draws(bp, jp, other)


def test_posterior_draws_by_chain():
    d = PosteriorDraws(np.arange(12.0).reshape(6, 2), 2)
    assert d.n_chains == 2
    assert d.by_chain().shape == (2, 3, 2)
    assert np.array_equal(d.by_chain()[1], [[6, 7], [8, 9], [10, 11]])
    with pytest.raises(ValueError, match="equal chains"):
        PosteriorDraws(np.zeros((5, 2)), 2)
