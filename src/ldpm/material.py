"""Facet-level constitutive model.

Three regimes govern the facet traction:

* fracture for positive normal strain: an effective traction bounded by a
  mixed-mode, strain-history-dependent softening limit, enforced by a
  vertical return at fixed strain;
* compression: incrementally elastic normal response clamped by a
  pore-collapse/rehardening boundary driven by volumetric and deviatoric
  strain;
* friction: shear plasticity on a cohesive-frictional cone whose radius
  grows with compressive normal traction.

All functions broadcast over numpy arrays; `facet_update` is evaluated in
one vectorized call over the facets that `ldpm.assembly` cannot prove
linear (its certificates), each branch only on the facets it governs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np


class SnapBackError(Exception):
    """Edge longer than the tensile characteristic length: the softening
    modulus would be negative and the facet response exhibits snap-back."""


@dataclass(frozen=True)
class MaterialParams:
    """Mesoscale material constants (N-mm-s-MPa units)."""
    E0: float = 60273.0           # MPa, effective normal modulus
    alpha: float = 0.25           # shear/normal coupling
    sigma_t: float = 3.44         # MPa, tensile strength
    lt: float = 500.0             # mm, tensile characteristic length
    rst: float = 2.6              # shear/tensile strength ratio
    nt: float = 0.4               # softening interaction exponent
    sigma_c0: float = 150.0       # MPa, compressive yield
    Hc0_over_E0: float = 0.4
    Hc1_over_E0: float = 0.1
    kappa_c0: float = 4.0
    kappa_c1: float = 1.0
    kappa_c2: float = 5.0
    kappa_c3: float = 0.1
    mu_0: float = 0.4
    mu_inf: float = 0.0
    sigma_N0: float = 600.0       # MPa
    Ed_over_E0: float = 1.0
    beta: float = 0.0
    r_s: float = 0.0

    def __post_init__(self):
        # a NaN is false in every comparison below, so it would pass them
        bad = [f.name for f in fields(self)
               if not math.isfinite(getattr(self, f.name))]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite")
        if self.E0 <= 0 or self.alpha <= 0:
            raise ValueError("E0 and alpha must be positive")
        if self.sigma_t <= 0 or self.lt <= 0 or self.sigma_c0 <= 0:
            raise ValueError("sigma_t, lt, sigma_c0 must be positive")
        if self.kappa_c0 <= 1:
            raise ValueError("kappa_c0 must exceed 1")
        # the boundaries' lower bounds behind `active_floors` rest on these
        if self.rst <= 0 or self.kappa_c3 <= 0 or self.sigma_N0 <= 0:
            raise ValueError("rst, kappa_c3, sigma_N0 must be positive")
        if min(self.Hc0_over_E0, self.Hc1_over_E0, self.kappa_c2,
               self.mu_inf, self.r_s) < 0:
            raise ValueError("Hc0_over_E0, Hc1_over_E0, kappa_c2, mu_inf, "
                             "r_s must be non-negative")
        if self.mu_0 < self.mu_inf:
            raise ValueError("mu_0 must be at least mu_inf")

    @property
    def sigma_s(self) -> float:
        """Cohesion (shear strength)."""
        return self.rst * self.sigma_t

    @property
    def Hc0(self) -> float:
        return self.Hc0_over_E0 * self.E0

    @property
    def Hc1(self) -> float:
        return self.Hc1_over_E0 * self.E0

    @property
    def Ed(self) -> float:
        return self.Ed_over_E0 * self.E0

    @property
    def D(self) -> np.ndarray:
        """Elastic moduli of (e_N, e_M, e_L): E0 (1, alpha, alpha)."""
        return np.array([1.0, self.alpha, self.alpha]) * self.E0


_FIELDS = ("e_max", "e_p_m", "e_p_l", "e_n_res", "traction")


class FacetStateArray:
    """Per-facet history, stored as struct-of-arrays over all facets.

    e_max       max effective strain ever reached (fracture history); on a
                facet a certificate holds, the value of its last
                evaluation, which only differs below the tension floor
    e_p_m/e_p_l plastic shear strains
    e_n_res     residual normal strain from compressive pore collapse
    traction    traction of the last evaluation (MPa), (nf, 3); on a facet
                a certificate holds, `assembly.facet_tractions` gives the
                committed one
    certificate the `ldpm.assembly` certificate memoized on these states
                (None until one is built), which only `ldpm.assembly`
                reads: which facets it proves linear, and the displacement
                budgets of that proof

    States may be compact (`with_rows`): the states of the facets `rows`
    alone, on the full states of every other facet, which they share.  The
    full arrays are merged at the first read of a field, once.  Nothing
    writes into the arrays of states after they are built, so states that
    share arrays stay independent.
    """

    def __init__(self, e_max, e_p_m, e_p_l, e_n_res, traction):
        self._arrays = (e_max, e_p_m, e_p_l, e_n_res, traction)
        self._base = self.rows = self.evaluated = self.certificate = None

    @classmethod
    def with_rows(cls, base: "FacetStateArray", rows,
                  evaluated: "FacetStateArray") -> "FacetStateArray":
        """The full states `base` with the states of the facets `rows` (an
        index array) replaced by `evaluated`, merged when first read."""
        new = cls(*(None,) * 5)
        new._arrays, new._base = None, base
        new.rows, new.evaluated = rows, evaluated
        return new

    @classmethod
    def virgin(cls, n_facets: int) -> "FacetStateArray":
        z = lambda: np.zeros(n_facets)
        return cls(e_max=z(), e_p_m=z(), e_p_l=z(), e_n_res=z(),
                   traction=np.zeros((n_facets, 3)))

    def _merged(self) -> tuple:
        if self._arrays is None:
            merged = []
            for f in _FIELDS:
                a = getattr(self._base, f).copy()
                a[self.rows] = getattr(self.evaluated, f)
                merged.append(a)
            self._arrays, self._base = tuple(merged), None
        return self._arrays

    e_max = property(lambda self: self._merged()[0])
    e_p_m = property(lambda self: self._merged()[1])
    e_p_l = property(lambda self: self._merged()[2])
    e_n_res = property(lambda self: self._merged()[3])
    traction = property(lambda self: self._merged()[4])

    def split(self, rows):
        """(base, sub): full states equal to these, and the states of the
        facets `rows` (an index array), for `with_rows`.  Compact states
        return their own base and rows when `rows` is their row array;
        otherwise the rows are gathered from the full arrays, once."""
        if self.rows is not rows:
            arrays = self._merged()
            self.rows = rows
            self.evaluated = FacetStateArray(*(a[rows] for a in arrays))
        return (self if self._base is None else self._base), self.evaluated


def sigma0(omega, params: MaterialParams):
    """Mixed-mode strength limit for the effective traction.

    Rationalized (singularity-free) form of the tension-shear envelope;
    equals sigma_t at omega = pi/2 and sigma_t rst / sqrt(alpha) at 0.
    """
    omega = np.asarray(omega, float)
    val = _sigma0(np.sin(omega), np.cos(omega), params)
    return float(val) if val.ndim == 0 else val


def _sigma0(s, c, params: MaterialParams):
    """`sigma0` from s = sin omega and c = cos omega."""
    return 2.0 * params.sigma_t / (
        s + np.sqrt(s ** 2 + 4.0 * params.alpha * c ** 2 / params.rst ** 2))


def check_snap_back(length, params: MaterialParams) -> None:
    """Raise SnapBackError if any edge length reaches lt."""
    if np.any(length >= params.lt):
        bad = np.atleast_1d(np.nonzero(np.atleast_1d(length >= params.lt))[0])
        raise SnapBackError(
            f"edge length >= characteristic length lt={params.lt} "
            f"(facet indices {bad.tolist()[:10]})")


def H0(omega, length, params: MaterialParams):
    """Mixed-mode softening modulus, a power interpolation between the
    pure-shear modulus H_s/alpha and the pure-tension modulus
    H_t = 2 E_0 / (l_t/l - 1); a negative omega counts as 0."""
    check_snap_back(np.asarray(length, float), params)
    return _H0(np.clip(np.asarray(omega, float), 0.0, None), length, params)


def _H0(omega, length, params: MaterialParams):
    """`H0` at omega in [0, pi/2], without the snap-back check, for callers
    that made it."""
    length = np.asarray(length, float)
    h_t = 2.0 * params.E0 / (params.lt / length - 1.0)
    h_s = params.r_s * params.E0
    val = h_s / params.alpha + (h_t - h_s / params.alpha) * \
        (2.0 * omega / np.pi) ** params.nt
    return float(val) if val.ndim == 0 else val


def sigma_bt(e_max, omega, length, params: MaterialParams):
    """Tensile/mixed-mode boundary: exponential decay of the strength limit
    once the max effective strain passes its elastic limit."""
    return _sigma_bt(e_max, sigma0(omega, params), H0(omega, length, params),
                     params)


def _sigma_bt(e_max, s0, h0, params: MaterialParams):
    """`sigma_bt` from the strength limit s0 and the softening modulus h0
    of its direction.  A zero modulus does not soften: its exponent is 0,
    also at e_max = inf, where h0 x would be NaN, and at s0 = 0 (e_eff
    overflowed in shear)."""
    h0 = np.asarray(h0, float)
    x = np.maximum(np.asarray(e_max, float) - s0 / params.E0, 0.0)
    expo = np.zeros(np.broadcast(h0, x, s0).shape)
    softens = h0 != 0.0
    np.multiply(-h0, x, out=expo, where=softens)
    np.divide(expo, s0, out=expo, where=softens)
    val = s0 * np.exp(expo)
    return float(val) if np.ndim(val) == 0 else val


# the largest double: `_sigma0_strains` clamps an overflowed e_eff to it
_MAX = np.finfo(float).max


def _sigma0_strains(e_n, r, e_eff, params: MaterialParams):
    """`sigma0` at omega = arctan2(e_N, r) of strains with e_N > 0, r =
    sqrt(shear2) and e_eff = sqrt(e_N^2 + shear2), without trigonometry:
    sin omega = e_N / e_eff and cos omega = r / e_eff.

    e_eff is at least e_N unless e_N^2 underflows, and finite unless e_N^2
    or shear2 overflows, so the clamp below changes no other e_eff.  Where
    e_eff underflows to 0 it gives (sin, cos) = (1, 0) and sigma_t, the
    value at omega = pi/2.  Where it overflows, sigma0 stays finite, and
    `sigma_bt` at e_max = inf is 0, or sigma0 where H0 = 0; either bound
    over e_eff = inf gives the facet zero traction, as with the sigma0 of
    omega.
    """
    d = np.minimum(np.maximum(e_eff, e_n), _MAX)
    return _sigma0(e_n / d, r / d, params)


def r_dv(e_d, e_v, params: MaterialParams):
    """Deviatoric-to-volumetric strain ratio controlling the compressive
    hardening modulus."""
    e_d = np.asarray(e_d, float)
    e_v = np.asarray(e_v, float)
    e_v0 = params.kappa_c3 * params.sigma_c0 / params.E0
    with np.errstate(divide="ignore"):
        val = np.where(e_v <= 0.0,
                       -np.abs(e_d) / (e_v - e_v0),
                       np.abs(e_d) / e_v0)
    return float(val) if val.ndim == 0 else val


def hc(r, params: MaterialParams):
    """Initial hardening modulus of the compressive boundary."""
    r = np.asarray(r, float)
    val = (params.Hc0 - params.Hc1) / \
        (1.0 + params.kappa_c2 * np.maximum(r - params.kappa_c1, 0.0)) \
        + params.Hc1
    return float(val) if val.ndim == 0 else val


def sigma_bc(e_d, e_v, params: MaterialParams):
    """Compressive boundary: yield plateau, pore-collapse hardening, and
    exponential rehardening, driven by e_DV = e_V + beta e_D."""
    e_d = np.asarray(e_d, float)
    e_v = np.asarray(e_v, float)
    e_dv = e_v + params.beta * e_d
    e_c0 = params.sigma_c0 / params.E0
    e_c1 = params.kappa_c0 * e_c0
    r = r_dv(e_d, e_v, params)
    h = hc(r, params)
    sigma_c1 = params.sigma_c0 + (e_c1 - e_c0) * h
    x = -e_dv
    linear = params.sigma_c0 + np.maximum(x - e_c0, 0.0) * h
    expo = sigma_c1 * np.exp((x - e_c1) * h / sigma_c1)
    val = np.where(x <= 0.0, params.sigma_c0,
                   np.where(x <= e_c1, linear, expo))
    return float(val) if val.ndim == 0 else val


def sigma_bs(t_n, params: MaterialParams):
    """Frictional shear strength as a function of (non-positive) normal
    traction; reduces to the cohesion at t_N = 0."""
    t_n = np.asarray(t_n, float)
    dmu = params.mu_0 - params.mu_inf
    # expm1 keeps the t_N = 0 value exactly at the cohesion sigma_s
    val = (params.sigma_s - params.mu_inf * t_n
           - dmu * params.sigma_N0 * np.expm1(t_n / params.sigma_N0))
    return float(val) if val.ndim == 0 else val


# relative margin of the active-set floors below the proven lower bounds;
# far above the rounding of the boundaries' own evaluation
FLOOR_MARGIN = 1e-9


@lru_cache(maxsize=64)
def active_floors(params: MaterialParams):
    """Floors below which a facet cannot reach the tension or the shear
    boundary: (e_floor, tau2_floor).

    For omega in [0, pi/2] the envelope denominator of `sigma0` is at most
    1 + max(1, sqrt(k)) with k = 4 alpha / rst^2, so sigma_bt(e_max) =
    sigma0 >= 2 sigma_t / (1 + max(1, sqrt(k))) while e_max stays below
    sigma0 / E0, and E0 e_eff <= E0 e_max is then the traction.  For
    t_N <= 0, sigma_bs(t_N) >= sigma_s when mu_inf >= 0, mu_0 >= mu_inf and
    sigma_N0 > 0, so a shear trial tau^2 = tm^2 + tl^2 below sigma_s^2
    cannot slip.  The compressive boundary needs no floor of its own:
    sigma_bc >= sigma_c0 when Hc0, Hc1, kappa_c2 >= 0.  MaterialParams
    enforces these conditions.  The distance to a floor: `linear_slack`.
    """
    k = 4.0 * params.alpha / params.rst ** 2
    s0_min = 2.0 * params.sigma_t / (1.0 + max(1.0, np.sqrt(k)))
    return (s0_min / params.E0 * (1.0 - FLOOR_MARGIN),
            params.sigma_s ** 2 * (1.0 - FLOOR_MARGIN))


def linear_slack(states: FacetStateArray, strains, params: MaterialParams):
    """Per facet, a lower bound on the inf-norm distance from `strains`
    (n, 3), or from a zero strain when None, to the nearest floor a virgin
    facet can reach, less a rounding margin; exactly 0 on the others.
    Within it, `facet_update` from `states` returns D e, evaluates no
    boundary and changes no history field but e_max below the floor.

    A facet is virgin when e_max is below the tension floor of
    `active_floors`, e_p_m = e_p_l = e_n_res = 0 and its committed t_N >=
    -sigma_c0.  The law then leaves its linear range only on one of three
    sets, and the slack is the least inf-norm distance to them:
      tension, e_N > 0 and e_eff >= floor_t: e_eff is Lipschitz with the
        constant sqrt(1 + 2 alpha), so the distance is at least
        max(-e_N, (floor_t - e_eff) / sqrt(1 + 2 alpha));
      shear, e_N <= 0 and tau = alpha E0 |(e_M, e_L)| >= sqrt(tau2_floor)
        (the trial shear traction, e_p = 0): tau is Lipschitz with the
        constant alpha E0 sqrt 2, so the distance is at least
        max(e_N, (sqrt(tau2_floor) - tau) / (alpha E0 sqrt 2));
      compression, E0 e_N <= -sigma_c0 (the trial traction, e_n_res = 0,
        and the modulus is E0 because the committed t_N >= -sigma_c0):
        at least e_N + sigma_c0 / E0.
    The slack is shrunk by the relative `FLOOR_MARGIN`, which holds the
    rounding of these tests and of `assembly.Certificate` (a few eps of the
    strains and floors) while the slack is at least 1e-6 of them.
    """
    floor_t, floor_s2 = active_floors(params)
    e_n, e_m, e_l = (np.zeros((1, 3)) if strains is None else strains).T
    e_s2 = e_m * e_m + e_l * e_l
    e_eff = np.sqrt(e_n * e_n + params.alpha * e_s2)
    tension = np.maximum(-e_n, (floor_t - e_eff)
                         / np.sqrt(1.0 + 2.0 * params.alpha))
    g = params.D[1]
    shear = np.maximum(e_n, (np.sqrt(floor_s2) - g * np.sqrt(e_s2))
                       / (g * np.sqrt(2.0)))
    slack = np.minimum(np.minimum(tension, shear), e_n + params.sigma_c0
                       / params.E0) * (1.0 - FLOOR_MARGIN)
    virgin = (states.e_max < floor_t) & (states.e_p_m == 0.0) \
        & (states.e_p_l == 0.0) & (states.e_n_res == 0.0) \
        & (states.traction[:, 0] >= -params.sigma_c0)
    return np.where(virgin, slack, 0.0)


def facet_update(state: FacetStateArray, strains, e_v, lengths,
                 params: MaterialParams):
    """Evaluate the constitutive model for all facets at the given total
    strains and return (tractions, trial_state).

    The input state is the last committed one and is not modified; the
    caller commits the trial state when a step is accepted.  The trial
    state holds the returned tractions themselves (`trial.traction is
    tractions`), not a copy.

    The branch follows the sign of e_N: any e_N > 0, however small
    (e_N = 0+), takes the fracture branch, and e_N <= 0 (e_N = 0-, and a
    zero of either sign) the compression and friction branches (Cusatis,
    Pelessone & Mencarelli 2011).  Where no boundary binds, the traction is
    the elastic law D e itself: E0 e_N and alpha E0 (e_M, e_L).

    Each branch runs only where some facet takes it.  The fracture branch
    runs on the arrays as given, and its values on the compression facets
    are overwritten; the compression and friction branches run on the
    compression facets alone, gathered, and scatter their tractions and
    history back.  Within a branch, each boundary is evaluated only on the
    facets that can reach it, found against a lower bound of the boundary
    (see `active_floors`), and not at all when there are none.  Below it
    the elastic value is the one the boundary would let through, so the
    result is bit for bit that of evaluating both branches and every
    boundary on every facet.  The envelope takes the sine and cosine of its
    direction from the strains (`_sigma0_strains`).  A history field that
    no facet changes is the committed array itself: nothing writes into
    states after they are built.

    e_v is the per-facet volumetric strain, an array or a scalar, or a
    function returning it for an index array of facets; the function is
    called once, with the facets that reach the compressive boundary (the
    only ones that read e_v), and not when there are none.
    """
    e = np.asarray(strains, float)
    if not np.isfinite(e).all():
        raise FloatingPointError("non-finite facet strains")
    n = len(e)
    e_n, e_m, e_l = e[:, 0], e[:, 1], e[:, 2]
    if not (type(lengths) is np.ndarray and lengths.shape == (n,)
            and lengths.dtype == float):
        lengths = np.broadcast_to(np.asarray(lengths, float), (n,))
    check_snap_back(lengths, params)
    E0, a = params.E0, params.alpha
    floor_t, floor_s2 = active_floors(params)
    comp = np.flatnonzero(e_n <= 0.0)
    t = np.empty_like(e)
    e_max = state.e_max

    if len(comp) < n:
        # fracture branch: the traction is scale (e_N, alpha e_M, alpha
        # e_L), with scale = E0 unless the envelope binds; the envelope only
        # where e_max reaches its floor
        shear2 = a * (e_m * e_m + e_l * e_l)
        e_eff = np.sqrt(e_n * e_n + shear2)
        e_max = np.maximum(e_max, e_eff)
        reach = e_max >= floor_t
        if len(comp):
            e_max[comp] = state.e_max[comp]
            reach[comp] = False
        scale = np.full(n, E0)
        hot = np.flatnonzero(reach)
        if len(hot):
            e_n_h, r, e_eff_h = e_n[hot], np.sqrt(shear2[hot]), e_eff[hot]
            # omega = arctan2(e_N, r) lies in [0, pi/2]: H0 needs no clip
            bound_t = _sigma_bt(e_max[hot],
                                _sigma0_strains(e_n_h, r, e_eff_h, params),
                                _H0(np.arctan2(e_n_h, r), lengths[hot],
                                    params),
                                params)
            soft = bound_t < E0 * e_eff_h      # so e_eff > 0 there
            scale[hot[soft]] = bound_t[soft] / e_eff_h[soft]
        np.multiply(scale, e_n, out=t[:, 0])
        scale *= a
        np.multiply(scale, e_m, out=t[:, 1])
        np.multiply(scale, e_l, out=t[:, 2])

    e_p_m, e_p_l, e_n_res = state.e_p_m, state.e_p_l, state.e_n_res
    if len(comp):
        # compression branch: incrementally elastic from the residual
        # strain, clamped by the compressive boundary where the trial
        # traction reaches its plateau; the unloading stiffness switches
        # once the committed traction has exceeded the plateau (inert for
        # Ed = E0)
        ec = e[comp]
        ec_n = ec[:, 0]
        e_nc = np.where(-state.traction[comp, 0] <= params.sigma_c0, E0,
                        params.Ed)
        trial = e_nc * (ec_n - e_n_res[comp])
        # an array lower bound, as in the full evaluation: np.clip with a
        # scalar one returns -0.0 for a trial of -0.0, with an array one
        # +0.0
        low = np.full(len(comp), -params.sigma_c0)
        hot = np.flatnonzero(trial <= -params.sigma_c0)
        if len(hot):
            rows = comp[hot]
            e_v = e_v(rows) if callable(e_v) \
                else np.broadcast_to(np.asarray(e_v, float), (n,))[rows]
            low[hot] = -sigma_bc(ec_n[hot] - e_v, e_v, params)
        tc_n = np.clip(trial, low, 0.0)
        moved = np.flatnonzero(trial != tc_n)
        if len(moved):
            e_n_res = e_n_res.copy()
            e_n_res[comp[moved]] = ec_n[moved] - tc_n[moved] / e_nc[moved]

        # friction: radial return onto the shear boundary where the trial
        # traction reaches the cohesion
        aE0 = a * E0
        tm = aE0 * (ec[:, 1] - e_p_m[comp])
        tl = aE0 * (ec[:, 2] - e_p_l[comp])
        y = np.flatnonzero(tm * tm + tl * tl >= floor_s2)
        if len(y):
            tau = np.hypot(tm[y], tl[y])
            limit = sigma_bs(tc_n[y], params)
            slip = tau > limit
            y, tau, limit = y[slip], tau[slip], limit[slip]
        if len(y):
            scale_s = limit / tau              # tau > limit >= sigma_s > 0
            tc_m, tc_l = tm[y] * scale_s, tl[y] * scale_s
            rows = comp[y]
            e_p_m, e_p_l = e_p_m.copy(), e_p_l.copy()
            e_p_m[rows] += (tm[y] - tc_m) / aE0
            e_p_l[rows] += (tl[y] - tc_l) / aE0
            tm[y], tl[y] = tc_m, tc_l
        t[comp, 0] = tc_n
        t[comp, 1] = tm
        t[comp, 2] = tl

    new = FacetStateArray(
        e_max=e_max, e_p_m=e_p_m, e_p_l=e_p_l, e_n_res=e_n_res, traction=t)
    return t, new


def elastic_tractions(strains, params: MaterialParams):
    """Pure elastic law t = E_0 diag(1, alpha, alpha) e."""
    return np.asarray(strains, float) * params.D
