"""Model layer: DGP families, sampling, cost geometry, monotonicity checks."""

import json

import numpy as np
import pytest

from roybounds import (
    DgpSpec,
    EvaluationGrid,
    InvalidDgpError,
    ObservationSample,
    ZLaw,
    generate_sample,
    true_cost,
)
from roybounds.errors import DomainError

from reference import check_smiv_data, check_smiv_dgp, cost_from_utilities, utility_pair


# -- sample container ---------------------------------------------------------

def test_sample_validation_rejects_bad_d():
    with pytest.raises(DomainError):
        ObservationSample(y=[1.0, 2.0], d=[0, 2], z=[0.1, 0.2])


def test_sample_validation_rejects_y_below_support():
    with pytest.raises(DomainError):
        ObservationSample(y=[1.0, -0.5], d=[0, 1], z=[0.1, 0.2],
                          lower_support_bound=0.0)


def test_sample_validation_rejects_nan_support_bound():
    with pytest.raises(DomainError, match="lower support bound"):
        ObservationSample(y=[1.0, 2.0], d=[0, 1], z=[0.1, 0.2],
                          lower_support_bound=float("nan"))


def test_sample_arrays_read_only(quasi_sample):
    with pytest.raises(ValueError):
        quasi_sample.y[0] = 99.0


def test_grid_from_sample_covers_range(quasi_sample):
    grid = EvaluationGrid.from_sample(quasi_sample, n_y=50, n_z=6)
    assert grid.y[0] >= quasi_sample.y.min() - 1e-12
    assert grid.y[-1] <= quasi_sample.y.max() + 1e-12
    assert np.all(np.diff(grid.y) > 0) and np.all(np.diff(grid.z) > 0)
    assert grid.z.size == 6


def test_grid_rejects_non_increasing():
    with pytest.raises(DomainError):
        EvaluationGrid(y=np.array([1.0, 1.0, 2.0]), z=np.array([0.0, 1.0]))


# -- DGP validation -----------------------------------------------------------

def test_quasi_linear_rejects_negative_cost_gap():
    with pytest.raises(InvalidDgpError):
        DgpSpec.quasi_linear(mu0=0.0, mu1=0.0, sigma0=0.5, sigma1=0.5,
                             g0=(0.2, 0.0), g1=(0.5, 0.0))


def test_multiplicative_rejects_slope_order():
    with pytest.raises(InvalidDgpError):
        DgpSpec.multiplicative(mu0=0.0, mu1=0.0, sigma0=0.5, sigma1=0.5,
                               g0=0.8, g1=1.2)


def test_isoelastic_needs_rho_above_one():
    with pytest.raises(InvalidDgpError):
        DgpSpec.isoelastic(mu0=0.0, mu1=0.0, sigma0=0.5, sigma1=0.6, rho=0.9)


_NAN, _INF = float("nan"), float("inf")
_QUASI = dict(mu0=0.0, mu1=0.0, sigma0=0.5, sigma1=0.5, g0=1.0, g1=0.0)


@pytest.mark.parametrize("field,make", [
    ("g0", lambda: DgpSpec.quasi_linear(**{**_QUASI, "g0": _NAN})),
    ("g0", lambda: DgpSpec.quasi_linear(**{**_QUASI, "g0": (1.0, _INF)})),
    ("mu1", lambda: DgpSpec.quasi_linear(**{**_QUASI, "mu1": _NAN})),
    ("sigma0", lambda: DgpSpec.quasi_linear(**{**_QUASI, "sigma0": _NAN})),
    ("rho", lambda: DgpSpec.isoelastic(mu0=0.0, mu1=0.0, sigma0=0.5, sigma1=0.6,
                                       rho=_NAN)),
    ("lower_support_bound",
     lambda: DgpSpec.quasi_linear(**_QUASI, lower_support_bound=_NAN)),
    ("g1", lambda: DgpSpec.multiplicative(mu0=0.0, mu1=0.0, sigma0=0.5, sigma1=0.5,
                                          g0=1.0, g1=_NAN)),
    ("f", lambda: DgpSpec.quadratic(mu0=0.0, mu1=0.0, sigma0=0.5, sigma1=0.5,
                                    eta0=0.1, eta1=0.2, f=_NAN))],
    ids=["nan-g0", "infinite-slope-g0", "nan-mu1", "nan-sigma0", "nan-rho",
         "nan-lower-bound", "nan-multiplicative-g1", "nan-quadratic-f"])
def test_non_finite_dgp_values_are_rejected(field, make):
    with pytest.raises(InvalidDgpError, match=f"dgp value {field} must be finite"):
        make()


@pytest.mark.parametrize("field,value", [
    ("mu0", lambda z: z), ("mu0", (1.0, 2.0, 3.0)), ("g1", {"slope": 0.1}),
    ("sigma1", "abc"), ("outcome_corr", "abc"), ("g0", True), ("mu1", (0.1, False)),
    ("g1", {"intercept": 0.2, "slope": True}), ("sigma0", {"intercept": True}),
    ("outcome_corr", False), ("lower_support_bound", np.True_)],
    ids=["callable", "triple", "no-intercept", "text-param", "text-scalar",
         "bool-param", "bool-in-pair", "bool-slope", "bool-intercept",
         "bool-scalar", "numpy-bool-bound"])
def test_malformed_dgp_values_are_rejected_at_construction(field, value):
    with pytest.raises(InvalidDgpError, match=f"^malformed dgp value {field}: "):
        DgpSpec.quasi_linear(**{**_QUASI, field: value})


@pytest.mark.parametrize("build, message", [
    (lambda: DgpSpec.quasi_linear(**_QUASI, rho=2.0), "quasi_linear does not read rho"),
    (lambda: DgpSpec.pure_roy(mu=0.0, sigma=0.5, g0=1.0, f=0.5),
     "pure_roy does not read g0, f"),
    (lambda: DgpSpec.isoelastic(mu0=0.0, mu1=0.0, sigma0=0.5, sigma1=0.6, rho=2.0,
                                eta0=0.1), "isoelastic does not read eta0")],
    ids=["quasi-rho", "roy-g0-f", "iso-eta0"])
def test_family_rejects_parameters_it_does_not_read(build, message):
    with pytest.raises(InvalidDgpError, match=f"^dgp family {message}$"):
        build()


@pytest.mark.parametrize("family, message", [
    ("quasi_linear", "g0 and g1"), ("multiplicative", "g0 and g1"),
    ("quadratic", "eta0, eta1 and f"), ("isoelastic", "rho")])
def test_family_names_the_parameters_it_needs(family, message):
    with pytest.raises(InvalidDgpError, match=f"^{family} needs {message}$"):
        DgpSpec(family=family)


def test_unknown_family_rejected():
    with pytest.raises(InvalidDgpError):
        DgpSpec(family="nope")


# -- true cost closed forms ---------------------------------------------------

def test_quasi_linear_cost_is_g_gap(quasi_dgp):
    y = np.array([0.5, 1.0, 3.0])
    for z in (0.1, 0.6):
        gap = (1.5 - 0.8 * z) - 0.3
        assert true_cost(quasi_dgp, y, z) == pytest.approx([gap] * 3)


def test_multiplicative_cost_scales_income():
    dgp = DgpSpec.multiplicative(mu0=0.0, mu1=0.1, sigma0=0.5, sigma1=0.5,
                                 g0=1.0, g1=0.6)
    y = np.array([1.0, 2.0])
    # utility g1*y1 vs outcome scale: cost solves g1*(y - C) form  =>  C = (1 - g1/g0) y
    assert true_cost(dgp, y, 0.3) == pytest.approx((1 - 0.6) * y)


def test_pure_roy_cost_is_zero(pure_roy_dgp):
    y = np.linspace(0.2, 5.0, 9)
    assert np.all(true_cost(pure_roy_dgp, y, 0.4) == 0.0)


def test_cost_nonnegative_across_families(quasi_dgp):
    iso = DgpSpec.isoelastic(mu0=0.0, mu1=0.2, sigma0=0.45, sigma1=0.6, rho=1.8)
    quad = DgpSpec.quadratic(mu0=0.0, mu1=0.1, sigma0=0.4, sigma1=0.4,
                             eta0=0.1, eta1=0.09, f=0.7)
    y = np.linspace(0.1, 3.0, 21)
    for dgp in (quasi_dgp, iso, quad):
        for z in (0.05, 0.5, 0.95):
            c = true_cost(dgp, y, z)
            assert np.all(c >= -1e-12)
            psi = y - c
            assert np.all(np.diff(psi) >= -1e-9), "shifted income must increase"


def test_cost_from_utilities_matches_quasi_linear_closed_form():
    pair = utility_pair(
        DgpSpec.quasi_linear(mu0=0.0, mu1=0.0, sigma0=0.5, sigma1=0.5,
                             g0=(2.0, -1.0), g1=(0.5, 0.0)))
    for y in (0.5, 1.7, 4.0):
        for z in (0.2, 0.8):
            gap = (2.0 - 1.0 * z) - 0.5
            assert cost_from_utilities(pair, y, z) == pytest.approx(gap, abs=1e-8)


def test_cost_from_utilities_isoelastic_root():
    dgp = DgpSpec.isoelastic(mu0=0.0, mu1=0.0, sigma0=0.4, sigma1=0.5, rho=2.0)
    pair = utility_pair(dgp)
    y, z = 2.0, 0.5
    c_root = cost_from_utilities(pair, y, z)
    assert c_root == pytest.approx(true_cost(dgp, y, z), abs=1e-7)


def test_quadratic_outcome_moments_are_truncated_lognormal():
    # income cap 1 / (2 max(eta0, eta1)) = 1.25 cuts the margins near their median
    dgp = DgpSpec.quadratic(mu0=(0.0, 0.2), mu1=0.1, sigma0=0.4, sigma1=0.5,
                            eta0=0.4, eta1=0.35, f=0.7)
    log_cap = np.log(dgp.support_cap())
    for d, z, power in [(0, 0.3, 1), (1, 0.3, 1), (1, 0.8, 2)]:
        mu = (0.2 * z) if d == 0 else 0.1
        s = 0.4 if d == 0 else 0.5
        x = np.linspace(mu - 12.0 * s, log_cap, 200_001)
        dens = np.exp(-0.5 * ((x - mu) / s) ** 2)
        want = np.trapezoid(np.exp(power * x) * dens, x) / np.trapezoid(dens, x)
        assert dgp.outcome_mean(d, z, power) == pytest.approx(want, rel=1e-8)


# -- sampling -----------------------------------------------------------------

def test_generate_sample_deterministic(quasi_dgp):
    a = generate_sample(quasi_dgp, 500, seed=3)
    b = generate_sample(quasi_dgp, 500, seed=3)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.d, b.d)
    assert np.array_equal(a.z, b.z)


def test_generate_sample_seed_sensitivity(quasi_dgp):
    a = generate_sample(quasi_dgp, 500, seed=3)
    b = generate_sample(quasi_dgp, 500, seed=4)
    assert not np.array_equal(a.y, b.y)


def test_selection_follows_net_utility(quasi_dgp):
    # perfect foresight: D=1 iff Y1 - C(Y1,Z) >= Y0, ties to sector 1
    s = generate_sample(quasi_dgp, 2000, seed=5)
    assert 0.05 < s.d.mean() < 0.95


def test_pure_roy_sample_is_comonotone(pure_roy_dgp):
    # equal laws + perfect correlation: Y0 = Y1, everyone indifferent, all d=1
    s = generate_sample(pure_roy_dgp, 1000, seed=6)
    assert np.all(s.d == 1)


def test_z_law_choice_support():
    dgp = DgpSpec.pure_roy(mu=0.0, sigma=0.5,
                           z_law=ZLaw(kind="choice", values=(0.2, 0.7)))
    s = generate_sample(dgp, 400, seed=0)
    assert set(np.unique(s.z)) == {0.2, 0.7}


# -- serialization ------------------------------------------------------------

def test_dgp_json_round_trip(quasi_dgp):
    clone = DgpSpec.from_json(quasi_dgp.to_json())
    y = np.array([0.7, 1.9])
    assert np.allclose(true_cost(clone, y, 0.4), true_cost(quasi_dgp, y, 0.4))
    a = generate_sample(quasi_dgp, 200, seed=9)
    b = generate_sample(clone, 200, seed=9)
    assert np.array_equal(a.y, b.y)


_SHAPE = dict(mu0=(0.0, 0.3), mu1=(0.2, 0.5), sigma0=0.6, sigma1=(0.7, 0.1))
_FAMILIES = {
    "pure_roy": lambda **kw: DgpSpec.pure_roy(mu=(0.1, 0.4), sigma=0.5,
                                             outcome_corr=0.3, **kw),
    "quasi_linear": lambda **kw: DgpSpec.quasi_linear(
        g0=(1.5, -0.8), g1=0.3, lower_support_bound=-0.5, **_SHAPE, **kw),
    "multiplicative": lambda **kw: DgpSpec.multiplicative(
        g0=1.0, g1=(0.55, 0.3), **_SHAPE, **kw),
    "quadratic": lambda **kw: DgpSpec.quadratic(
        eta0=0.05, eta1=(0.06, 0.01), f=0.8, **_SHAPE, **kw),
    "isoelastic": lambda **kw: DgpSpec.isoelastic(rho=1.5, **_SHAPE, **kw),
}
_Z_LAWS = {"uniform": ZLaw(kind="uniform", low=-0.2, high=1.3),
           "choice": ZLaw(kind="choice", values=(0.2, 0.5, 0.7), probs=(0.25, 0.25, 0.5)),
           "fixed": ZLaw(kind="fixed", value=0.4)}


@pytest.mark.parametrize("law", sorted(_Z_LAWS))
@pytest.mark.parametrize("foresight", ["perfect", "imperfect"])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_every_dgp_survives_its_json_form(family, foresight, law):
    dgp = _FAMILIES[family](foresight=foresight, z_law=_Z_LAWS[law])
    assert dgp.family == family
    assert DgpSpec.from_json(json.loads(json.dumps(dgp.to_json()))) == dgp


@pytest.mark.parametrize("foresight", ["perfect", "imperfect"])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_shifted_income_inverse_undoes_shifted_income(family, foresight):
    dgp = _FAMILIES[family](foresight=foresight)
    z = np.linspace(0.0, 1.0, 5)
    y = np.linspace(0.05, min(dgp.support_cap(), 20.0), 40)[:, None]
    back = dgp.shifted_income_inverse(dgp.shifted_income(y, z), z)
    assert back.shape == (40, 5)
    assert np.allclose(back, y, rtol=1e-9, atol=0.0)
    # psi_z(0) is the bottom of the range of psi_z on the support y >= 0
    below = dgp.shifted_income(0.0, z) - np.array([1e-9, 0.1, 1.0, 5.0, 100.0])
    assert np.all(dgp.shifted_income_inverse(below, z) == -np.inf)


# -- stochastic monotonicity check --------------------------------------------

def _probe_grids(sample, n_y=25, n_z=5):
    y = np.unique(np.quantile(sample.y, np.linspace(0.05, 0.95, n_y)))
    z = np.linspace(0.1, 0.9, n_z)
    return y, z


def test_check_smiv_passes_on_valid_dgp(quasi_dgp):
    s = generate_sample(quasi_dgp, 8000, seed=11)
    y, z = _probe_grids(s)
    report = check_smiv_data(s, lambda yy, zz: true_cost(quasi_dgp, yy, zz),
                             y, z, tol=0.05)
    assert report.ok, report.worst_violation


def test_check_smiv_flags_reversed_instrument(quasi_dgp):
    # flipping z reverses the monotone direction and must fail the check
    s = generate_sample(quasi_dgp, 8000, seed=11)
    flipped = ObservationSample(y=s.y, d=s.d, z=1.0 - s.z,
                                lower_support_bound=s.lower_support_bound)
    y, z = _probe_grids(flipped)
    report = check_smiv_data(flipped,
                             lambda yy, zz: true_cost(quasi_dgp, yy, 1.0 - zz),
                             y, z, tol=0.05)
    assert not report.ok


def test_check_smiv_dgp_mode(quasi_dgp):
    rep = check_smiv_dgp(quasi_dgp, np.linspace(0.3, 3.0, 12),
                         np.linspace(0.1, 0.9, 4))
    assert rep.ok and rep.mode == "dgp"
