"""Core model objects: observed samples, evaluation grids, synthetic DGPs.

The observable data are triples (Y, D, Z): an income Y bounded below, a
binary sector indicator D, and a scalar selection shifter Z.  Synthetic
data-generating processes pair lognormal potential incomes (Y0, Y1) with a
known non-pecuniary cost C(y, z) of working in sector 1, so every estimator
in the package can be validated against analytic ground truth.

Built-in cost families C(y, z) = a + (1 - k) y + c y**2, with (a, k, c) at z:

    pure_roy        (0, 1, 0)                          C = 0
    quasi_linear    (g0 - g1, 1, 0)                    C = g0(z) - g1(z)
    multiplicative  (0, g1 / g0, 0)                    C = y (1 - g1(z) / g0(z))
    quadratic       (0, 1, eta1 - eta0 f)              C = (eta1 - eta0 f)(z) y**2
    isoelastic      (0, exp((s0**2 - s1**2) rho / 2), 0)  C = (1 - k) y

Every family reads the margins mu0, mu1, sigma0, sigma1 and outcome_corr.
Beside them each reads its own parameters and no other: none (pure_roy),
g0 and g1 (quasi_linear, multiplicative), eta0, eta1 and f (quadratic),
rho (isoelastic).  A parameter the family does not read is an error.

Sector choice compares y1 - C(y1, z) against y0 record by record (perfect
foresight) or compares the two conditional means given z (imperfect
foresight).  Ties go to sector 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidDgpError

# each family's own parameters, read beside the margins every family reads
_FAMILY_PARAMS = {"pure_roy": (), "quasi_linear": ("g0", "g1"),
                  "multiplicative": ("g0", "g1"), "quadratic": ("eta0", "eta1", "f"),
                  "isoelastic": ("rho",)}
FAMILIES = tuple(_FAMILY_PARAMS)
_MARGINS = ("mu0", "mu1", "sigma0", "sigma1", "outcome_corr")
_OWN_PARAMS = tuple(dict.fromkeys(name for own in _FAMILY_PARAMS.values() for name in own))
# the fields of each z law kind
_ZLAW_FIELDS = {"uniform": ("low", "high"), "choice": ("values", "probs"),
                "fixed": ("value",)}

_PROBE_POINTS = 33  # z probe resolution for closed-form shape validation
_ZPARAMS = ("mu0", "mu1", "sigma0", "sigma1", "g0", "g1", "eta0", "eta1", "f")
_PROBS_ATOL = math.sqrt(np.finfo(float).eps)  # Generator.choice's sum tolerance


@dataclass(frozen=True)
class AffineInZ:
    """Affine map z -> intercept + slope * z, the JSON-portable parameter shape."""

    intercept: float
    slope: float = 0.0

    def __call__(self, z):
        return self.intercept + self.slope * np.asarray(z, dtype=float)

    def spec(self) -> dict | float:
        """JSON form: the intercept alone when the map is constant."""
        if self.slope == 0.0:
            return self.intercept
        return {"intercept": self.intercept, "slope": self.slope}


def _number(value) -> float:
    """float(value), refusing a bool or a string: JSON true or "0.5" is no
    number here, and an integer beyond the float range is a ValueError."""
    if isinstance(value, (bool, np.bool_, str)):
        raise TypeError(f"{value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{value!r} is beyond the float range") from None


def as_zparam(value):
    """Coerce a scalar, (intercept, slope) pair or dict to an AffineInZ."""
    if value is None or isinstance(value, AffineInZ):
        return value
    if isinstance(value, dict):
        return AffineInZ(_number(value["intercept"]), _number(value.get("slope", 0.0)))
    if isinstance(value, (tuple, list)):
        a, b = value
        return AffineInZ(_number(a), _number(b))
    return AffineInZ(_number(value))


@dataclass(frozen=True)
class ZLaw:
    """Marginal law of the selection shifter Z.

    kind is one of "uniform" (low/high), "choice" (values with optional
    probs), or "fixed" (a single value).  The law is an explicit model
    input: nothing in the bounds machinery identifies it, so synthetic
    studies must state it.
    """

    kind: str = "uniform"
    low: float = 0.0
    high: float = 1.0
    values: tuple = ()
    probs: tuple = ()
    value: float = 0.0

    def __post_init__(self):
        numbers = _ZLAW_FIELDS.get(self.kind)
        if numbers is None:
            raise InvalidDgpError(f"unknown z law kind {self.kind!r}")
        for name in numbers:
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidDgpError(f"z law {name} must be finite")
        if self.kind == "uniform" and not self.low < self.high:
            raise InvalidDgpError("uniform z law needs low < high")
        if self.kind == "choice":
            if len(self.values) == 0:
                raise InvalidDgpError("choice z law needs at least one value")
            if self.probs and len(self.probs) != len(self.values):
                raise InvalidDgpError("z law probs must match values")
            if self.probs and (min(self.probs) < 0.0
                               or abs(math.fsum(self.probs) - 1.0) > _PROBS_ATOL):
                raise InvalidDgpError("z law probs must be non-negative and sum to 1")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, size=n)
        if self.kind == "choice":
            probs = np.asarray(self.probs, dtype=float) if self.probs else None
            return rng.choice(np.asarray(self.values, dtype=float), size=n, p=probs)
        return np.full(n, float(self.value))

    def support_probe(self) -> np.ndarray:
        """Representative z values used for closed-form shape validation."""
        if self.kind == "uniform":
            return np.linspace(self.low, self.high, _PROBE_POINTS)
        if self.kind == "choice":
            return np.asarray(self.values, dtype=float)
        return np.array([self.value])

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for name in _ZLAW_FIELDS[self.kind]:
            value = getattr(self, name)
            if isinstance(value, tuple):
                if not value:  # no probs: equal weights
                    continue
                value = list(value)
            out[name] = value
        return out

    @staticmethod
    def from_json(obj: dict) -> "ZLaw":
        """kind (default uniform) and each field of that kind, probs optional."""
        try:
            kind = obj.get("kind", "uniform")
            names = _ZLAW_FIELDS[kind]
            if set(obj) <= {"kind", *names}:
                return ZLaw(kind=kind, **{
                    name: (tuple(map(_number, obj[name])) if name in ("values", "probs")
                           else _number(obj[name]))
                    for name in names if name != "probs" or name in obj})
        except (AttributeError, KeyError, TypeError, ValueError):
            pass
        raise InvalidDgpError(f"malformed z law {obj!r}")


@dataclass(frozen=True)
class ObservationSample:
    """Immutable record sample (y, d, z) with a known lower income bound.

    Invariants: equal lengths, finite values, d in {0, 1}, and
    y >= lower_support_bound everywhere.
    """

    y: np.ndarray
    d: np.ndarray
    z: np.ndarray
    lower_support_bound: float = 0.0

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        d = np.asarray(self.d)
        z = np.asarray(self.z, dtype=float)
        if not (y.ndim == d.ndim == z.ndim == 1):
            raise DomainError("y, d, z must be one-dimensional")
        if not (y.size == d.size == z.size):
            raise DomainError("y, d, z must have equal length")
        if y.size == 0:
            raise DomainError("empty sample")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(z))):
            raise DomainError("non-finite y or z values")
        if not math.isfinite(self.lower_support_bound):
            raise DomainError("lower support bound must be finite")
        dd = d.astype(float)
        if not np.all((dd == 0.0) | (dd == 1.0)):
            raise DomainError("d must be binary 0/1")
        if np.any(y < self.lower_support_bound - 1e-12):
            bad = int(np.argmax(y < self.lower_support_bound - 1e-12))
            raise DomainError(
                f"y below lower support bound {self.lower_support_bound!r} at row {bad}"
            )
        d_int = dd.astype(np.int8)
        for name, arr in (("y", y), ("d", d_int), ("z", z)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return int(self.y.size)

    @property
    def n_distinct_z(self) -> int:
        return int(np.unique(self.z).size)

    def require_z_variation(self) -> None:
        """Bound operations on samples need at least two distinct z values."""
        if self.n_distinct_z < 2:
            raise DomainError("bound operations need at least 2 distinct z values")


@dataclass(frozen=True)
class EvaluationGrid:
    """Strictly increasing evaluation points in y and z."""

    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        z = np.asarray(self.z, dtype=float)
        for name, arr in (("y", y), ("z", z)):
            if arr.ndim != 1 or arr.size == 0:
                raise DomainError(f"{name} grid must be a non-empty vector")
            if arr.size > 1 and not np.all(np.diff(arr) > 0):
                raise DomainError(f"{name} grid must be strictly increasing")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def shape(self) -> tuple:
        return (self.y.size, self.z.size)

    @staticmethod
    def from_sample(sample: ObservationSample, n_y: int, n_z: int) -> "EvaluationGrid":
        """Default grid: n_y empirical quantiles of y, n_z even points over the z range."""
        probs = np.linspace(0.0, 1.0, n_y)
        y = np.unique(np.quantile(sample.y, probs))
        zmin, zmax = float(np.min(sample.z)), float(np.max(sample.z))
        if zmin == zmax:
            z = np.array([zmin])
        else:
            z = np.linspace(zmin, zmax, n_z)
        return EvaluationGrid(y=y, z=z)


@dataclass(frozen=True)
class DgpSpec:
    """Synthetic data-generating process with a known cost function.

    Potential incomes are Y_d = exp(X_d) with X_d | Z=z normal with location
    mu_d(z) and scale sigma_d(z), and corr(X0, X1) = outcome_corr.  The
    quadratic family additionally truncates both X_d so that incomes stay
    under the curvature cap min_d 1/(2 eta_d); this keeps shifted income
    increasing on the support.

    ``foresight`` is "perfect" (record-level comparison) or "imperfect"
    (conditional-mean comparison given z, so selection is deterministic in
    z).  Every z parameter is an AffineInZ; the constructors also take the
    shapes ``as_zparam`` reads.
    """

    family: str
    mu0: AffineInZ = AffineInZ(0.0)
    mu1: AffineInZ = AffineInZ(0.0)
    sigma0: AffineInZ = AffineInZ(1.0)
    sigma1: AffineInZ = AffineInZ(1.0)
    outcome_corr: float = 0.0
    g0: AffineInZ | None = None
    g1: AffineInZ | None = None
    eta0: AffineInZ | None = None
    eta1: AffineInZ | None = None
    f: AffineInZ | None = None
    rho: float | None = None
    foresight: str = "perfect"
    lower_support_bound: float = 0.0
    z_law: ZLaw = ZLaw()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidDgpError(f"unknown family {self.family!r}")
        own = _FAMILY_PARAMS[self.family]
        unread = [name for name in _OWN_PARAMS
                  if name not in own and getattr(self, name) is not None]
        if unread:
            raise InvalidDgpError(f"dgp family {self.family} does not read "
                                  f"{', '.join(unread)}")
        if self.foresight not in ("perfect", "imperfect"):
            raise InvalidDgpError(f"unknown foresight {self.foresight!r}")
        z = self.z_law.support_probe()
        for name in ("outcome_corr", "rho", "lower_support_bound", *_ZPARAMS):
            value = getattr(self, name)
            try:
                value = as_zparam(value) if name in _ZPARAMS else (
                    None if value is None else _number(value))
            except (KeyError, TypeError, ValueError):
                raise InvalidDgpError(f"malformed dgp value {name}: {value!r}") from None
            object.__setattr__(self, name, value)
            with np.errstate(all="ignore"):  # an infinite slope at z = 0 gives nan
                value = value(z) if callable(value) else value
            if value is not None and not np.all(np.isfinite(value)):
                raise InvalidDgpError(f"dgp value {name} must be finite")
        if not -1.0 <= self.outcome_corr <= 1.0:
            raise InvalidDgpError("outcome_corr must lie in [-1, 1]")
        if any(getattr(self, name) is None for name in own):
            *rest, last = own
            raise InvalidDgpError(f"{self.family} needs "
                                  f"{', '.join(rest) + ' and ' if rest else ''}{last}")
        self._validate_shape(z)

    # -- closed-form validation of the two cost-shape restrictions ----------

    def _validate_shape(self, z: np.ndarray) -> None:
        s0 = np.atleast_1d(self.sigma0(z)).astype(float)
        s1 = np.atleast_1d(self.sigma1(z)).astype(float)
        if np.any(s0 <= 0) or np.any(s1 <= 0):
            raise InvalidDgpError("outcome scales must be positive")
        if self.family == "quasi_linear":
            gap = np.atleast_1d(self.g0(z) - self.g1(z))
            if np.any(gap < -1e-12):
                raise InvalidDgpError("quasi_linear cost g0 - g1 must be non-negative")
        elif self.family == "multiplicative":
            g0 = np.atleast_1d(self.g0(z)).astype(float)
            g1 = np.atleast_1d(self.g1(z)).astype(float)
            if np.any(g0 <= 0) or np.any(g1 <= 0):
                raise InvalidDgpError("multiplicative utility slopes must be positive")
            if np.any(g1 > g0 * (1 + 1e-12)):
                raise InvalidDgpError("multiplicative cost needs g1 <= g0")
        elif self.family == "quadratic":
            e0 = np.atleast_1d(self.eta0(z)).astype(float)
            e1 = np.atleast_1d(self.eta1(z)).astype(float)
            fr = np.atleast_1d(self.f(z)).astype(float)
            if np.any(e0 <= 0) or np.any(e1 <= 0):
                raise InvalidDgpError("quadratic curvatures must be positive")
            if np.any(fr <= 0) or np.any(fr > 1 + 1e-12):
                raise InvalidDgpError("quadratic moment ratio f must lie in (0, 1]")
            if np.any(e1 - e0 * fr < -1e-12):
                raise InvalidDgpError("quadratic cost eta1 - eta0*f must be non-negative")
        elif self.family == "isoelastic":
            if self.rho <= 1.0:
                raise InvalidDgpError("isoelastic needs rho > 1")
            if np.any(s0 > s1 + 1e-12):
                raise InvalidDgpError("isoelastic cost needs sigma0 <= sigma1")

    # -- family constructors -------------------------------------------------

    @staticmethod
    def pure_roy(mu, sigma, outcome_corr: float = 1.0, **kw) -> "DgpSpec":
        """Zero-cost benchmark; default comonotone equal laws give Y0 = Y1 a.s."""
        return DgpSpec(family="pure_roy", mu0=mu, mu1=mu, sigma0=sigma, sigma1=sigma,
                       outcome_corr=outcome_corr, **kw)

    @staticmethod
    def quasi_linear(mu0, mu1, sigma0, sigma1, g0, g1, **kw) -> "DgpSpec":
        return DgpSpec(family="quasi_linear", mu0=mu0, mu1=mu1, sigma0=sigma0,
                       sigma1=sigma1, g0=g0, g1=g1, **kw)

    @staticmethod
    def multiplicative(mu0, mu1, sigma0, sigma1, g0, g1, **kw) -> "DgpSpec":
        return DgpSpec(family="multiplicative", mu0=mu0, mu1=mu1, sigma0=sigma0,
                       sigma1=sigma1, g0=g0, g1=g1, **kw)

    @staticmethod
    def quadratic(mu0, mu1, sigma0, sigma1, eta0, eta1, f, **kw) -> "DgpSpec":
        return DgpSpec(family="quadratic", mu0=mu0, mu1=mu1, sigma0=sigma0,
                       sigma1=sigma1, eta0=eta0, eta1=eta1, f=f, **kw)

    @staticmethod
    def isoelastic(mu0, mu1, sigma0, sigma1, rho, **kw) -> "DgpSpec":
        return DgpSpec(family="isoelastic", mu0=mu0, mu1=mu1, sigma0=sigma0,
                       sigma1=sigma1, rho=rho, **kw)

    # -- cost geometry --------------------------------------------------------

    def _cost_coefficients(self, z) -> tuple:
        """(a, k, c) of C(y, z) = a + (1 - k) y + c y**2, as arrays shaped like z.

        The coefficients a family does not use are exact zeros and ones, so
        its closed form adds and multiplies by them without rounding.
        """
        zero = np.zeros(np.shape(z))
        one = np.ones_like(zero)
        if self.family == "quasi_linear":
            return self.g0(z) - self.g1(z), one, zero
        if self.family == "multiplicative":
            return zero, self.g1(z) / self.g0(z), zero
        if self.family == "quadratic":
            return zero, one, self.eta1(z) - self.eta0(z) * self.f(z)
        if self.family == "isoelastic":
            s0, s1 = self.sigma0(z), self.sigma1(z)
            return zero, np.exp((s0**2 - s1**2) * self.rho / 2.0), zero
        return zero, one, zero  # pure_roy

    def shifted_income(self, y, z):
        """psi_z(y) = y - C(y, z); increasing in y on the support."""
        return np.asarray(y, dtype=float) - true_cost(self, y, z)

    def shifted_income_inverse(self, v, z):
        """Inverse of psi_z; +inf where the threshold never binds, -inf below range."""
        v = np.asarray(v, dtype=float)
        z = np.asarray(z, dtype=float)
        a, k, c = self._cost_coefficients(z)
        if self.family != "quadratic":  # psi_z(y) = k y - a with k in (0, 1]
            return np.where(v + a < 0, -np.inf, (v + a) / k)
        # the smaller root of c * y**2 - y + v = 0
        with np.errstate(invalid="ignore"):
            disc = 1.0 - 4.0 * c * v
            root = np.where(disc >= 0, (1.0 - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * c), np.inf)
        out = np.where(v <= 0, np.where(v < 0, -np.inf, 0.0), root)
        # beyond the range of psi on the truncated support nothing binds
        top = self.shifted_income(self.support_cap(), z)
        return np.where(v > top, np.inf, out)

    def support_cap(self) -> float:
        """Almost-sure income cap (quadratic family only), inf otherwise."""
        if self.family != "quadratic":
            return math.inf
        z = self.z_law.support_probe()
        e0 = np.atleast_1d(self.eta0(z)).astype(float)
        e1 = np.atleast_1d(self.eta1(z)).astype(float)
        return float(np.min(1.0 / (2.0 * np.maximum(e0, e1))))

    # -- conditional moments (used by imperfect foresight) --------------------

    def _log_cap(self) -> float:
        cap = self.support_cap()
        return math.log(cap) if math.isfinite(cap) else math.inf

    def outcome_mean(self, d: int, z, power: int = 1):
        """E[Y_d^power | z] for the (possibly truncated) lognormal margin."""
        mu = np.asarray((self.mu1 if d == 1 else self.mu0)(z), dtype=float)
        sg = np.asarray((self.sigma1 if d == 1 else self.sigma0)(z), dtype=float)
        return _lognormal_moment(mu, sg, power, self._log_cap())

    def mean_shifted_income(self, z):
        """E[Y1 - C(Y1, z) | z], the sector-1 attractiveness index."""
        z = np.asarray(z, dtype=float)
        a, k, c = self._cost_coefficients(z)
        m1 = self.outcome_mean(1, z)
        if self.family == "quadratic":
            return m1 - c * self.outcome_mean(1, z, power=2)
        return k * m1 - a

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        names = (*_MARGINS, *_FAMILY_PARAMS[self.family])
        return {
            "family": self.family,
            "params": {name: getattr(self, name).spec() if name in _ZPARAMS
                       else getattr(self, name) for name in names},
            "foresight": self.foresight,
            "z_law": self.z_law.to_json(),
            "lower_support_bound": self.lower_support_bound,
        }

    @staticmethod
    def from_json(obj: dict) -> "DgpSpec":
        params = obj.get("params", {}) if isinstance(obj, dict) else None
        if not isinstance(params, dict) or "family" not in obj:
            raise InvalidDgpError("dgp must be a JSON object with a family "
                                  "and an optional params object")
        unknown = set(obj) - {"family", "params", "foresight", "z_law", "lower_support_bound"}
        if unknown:
            raise InvalidDgpError(f"unknown dgp key(s) {sorted(unknown)}")
        unknown = set(params) - {*_MARGINS, *_OWN_PARAMS}
        if unknown:
            raise InvalidDgpError(f"unknown dgp parameter(s) {sorted(unknown)}")
        kw = {**params, "lower_support_bound": obj.get("lower_support_bound", 0.0)}
        for name, value in kw.items():
            if value is None:  # the constructor reads None as unset; to_json never writes it
                raise InvalidDgpError(f"malformed dgp value {name}: {value!r}")
        return DgpSpec(
            family=obj["family"],
            foresight=obj.get("foresight", "perfect"),
            z_law=ZLaw.from_json(obj["z_law"]) if "z_law" in obj else ZLaw(),
            **kw,
        )


def _lognormal_moment(mu, sigma, k: int, log_cap: float = math.inf):
    """E[Y^k] for Y = exp(X), X ~ N(mu, sigma^2) truncated to X <= log_cap."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    base = np.exp(k * mu + 0.5 * (k * sigma) ** 2)
    if not math.isfinite(log_cap):
        return base
    from scipy.special import ndtr

    a = (log_cap - mu) / sigma
    return base * ndtr(a - k * sigma) / ndtr(a)


def true_cost(dgp: DgpSpec, y, z):
    """Analytic cost C(y, z) of the DGP; raises if the closed form turns negative."""
    y = np.asarray(y, dtype=float)
    a, k, c = dgp._cost_coefficients(np.asarray(z, dtype=float))
    cost = a + y * (1 - k) + c * y**2
    if np.any(cost < -1e-12):
        raise InvalidDgpError("analytic cost is negative on the requested points")
    return np.maximum(cost, 0.0)


def _philox(seed) -> np.random.Generator:
    """Counter-based generator so replications can split seeds safely."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _log_incomes(dgp: DgpSpec, z: np.ndarray, rng) -> tuple:
    """One draw of the log incomes (X0, X1) at each z, correlated through r."""
    r = dgp.outcome_corr
    a = rng.standard_normal(z.size)
    b = rng.standard_normal(z.size)
    u1 = r * a + math.sqrt(max(0.0, 1.0 - r * r)) * b
    return (np.asarray(dgp.mu0(z), dtype=float) + np.asarray(dgp.sigma0(z), dtype=float) * a,
            np.asarray(dgp.mu1(z), dtype=float) + np.asarray(dgp.sigma1(z), dtype=float) * u1)


def generate_sample(dgp: DgpSpec, n: int, seed) -> ObservationSample:
    """Draw n records (y, d, z), z from ``dgp.z_law``; bit-reproducible given a seed.

    Sector choice uses the record-level rule 1{y1 - C(y1, z) >= y0} under
    perfect foresight (ties to sector 1) and the conditional-mean rule
    1{E[Y1 - C(Y1, Z)|z] >= E[Y0|z]} under imperfect foresight.
    """
    if n < 1:
        raise DomainError("sample size must be positive")
    rng = _philox(seed)
    z = dgp.z_law.draw(rng, n)
    x0, x1 = _log_incomes(dgp, z, rng)

    log_cap = dgp._log_cap()
    if math.isfinite(log_cap):
        # rejection keeps the conditional-on-cap joint law exact
        for _ in range(1000):
            bad = (x0 > log_cap) | (x1 > log_cap)
            if not np.any(bad):
                break
            x0[bad], x1[bad] = _log_incomes(dgp, z[bad], rng)
        else:
            raise InvalidDgpError("support truncation rejects nearly all draws")

    y0 = np.exp(x0)
    y1 = np.exp(x1)
    if dgp.foresight == "perfect":
        d = dgp.shifted_income(y1, z) >= y0
    else:
        d = np.asarray(dgp.mean_shifted_income(z) >= dgp.outcome_mean(0, z))
    y = np.where(d, y1, y0)
    return ObservationSample(y=y, d=d.astype(np.int8), z=z,
                             lower_support_bound=dgp.lower_support_bound)
