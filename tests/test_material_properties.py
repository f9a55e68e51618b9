"""Property tests of the facet law: `facet_update` evaluates each boundary
only on the facets that can reach it, and must return tractions and trial
states bit for bit equal to the all-facet oracle, on random parameters,
committed states and strains that sit on zeros, subnormals and within a few
ulp of the floors and the boundaries.  Its results must also stay inside
the three boundaries and never lower the fracture history."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from ldpm.material import FLOOR_MARGIN, FacetStateArray, MaterialParams, \
    active_floors, facet_update, sigma0, sigma_bc, sigma_bs, sigma_bt

import oracles

FIELDS = ("e_max", "e_p_m", "e_p_l", "e_n_res", "traction")

params_st = st.builds(
    MaterialParams,
    E0=st.floats(1e3, 1e5),
    # alpha / rst up to 4: k = 4 alpha / rst^2 reaches far above 1
    alpha=st.floats(0.05, 2.0),
    rst=st.floats(0.5, 4.0),
    sigma_t=st.floats(1.0, 10.0),
    lt=st.floats(100.0, 1000.0),
    nt=st.floats(0.1, 1.0),
    sigma_c0=st.floats(20.0, 200.0),
    Hc0_over_E0=st.floats(0.0, 0.5),
    Hc1_over_E0=st.floats(0.0, 0.5),
    kappa_c0=st.floats(1.5, 6.0),
    kappa_c1=st.floats(0.0, 2.0),
    kappa_c2=st.floats(0.0, 6.0),
    kappa_c3=st.floats(0.01, 1.0),
    mu_0=st.floats(0.2, 0.8),
    mu_inf=st.just(0.0) | st.floats(0.0, 0.2),
    sigma_N0=st.floats(50.0, 1000.0),
    Ed_over_E0=st.floats(0.5, 2.0),
    beta=st.floats(-0.5, 0.5),
    r_s=st.floats(0.0, 0.5),
)


def near(values, ulps=3):
    """Each value, its negative and their neighbours within `ulps` ulp."""
    out = []
    for v in values:
        for x in (v, -v):
            for k in range(-ulps, ulps + 1):
                y = x
                for _ in range(abs(k)):
                    y = np.nextafter(y, np.inf if k > 0 else -np.inf)
                out.append(float(y))
    return out


def strain_values(p):
    """Scalars a strain component is drawn from: zeros, subnormals, the
    active-set floors and the elastic limits of each boundary, in strain
    units, next to random values up to deep pore collapse."""
    aE = p.alpha * p.E0
    floor_t, floor_s2 = active_floors(p)
    special = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
               floor_t, floor_t / (1.0 - FLOOR_MARGIN), p.sigma_t / p.E0,
               sigma0(np.pi / 4, p) / p.E0, p.sigma_c0 / p.E0,
               p.sigma_c0 / (p.Ed_over_E0 * p.E0), p.sigma_s / aE,
               np.sqrt(floor_s2) / aE]
    return st.sampled_from(near(special)) | st.floats(-2e-2, 2e-2) \
        | st.floats(-1e-4, 1e-4)


@st.composite
def cases(draw):
    """(state, strains, e_v, lengths, params) of 1-12 facets."""
    p = draw(params_st)
    n = draw(st.integers(1, 12))
    sv = strain_values(p)
    col = lambda elems: draw(hnp.arrays(float, n, elements=elems))
    e = draw(hnp.arrays(float, (n, 3), elements=sv))
    e_v = col(sv)
    lengths = col(st.floats(1.0, 0.999 * p.lt))
    # committed history: fracture history near the envelope floors, plastic
    # and residual strains, committed normal tractions around the plateau
    e_max = np.abs(col(sv))
    e_p_m, e_p_l = col(sv), col(sv)
    e_n_res = -np.abs(col(sv))
    traction = draw(hnp.arrays(float, (n, 3),
                               elements=st.floats(-20.0, 20.0)))
    traction[:, 0] = col(st.sampled_from(near([p.sigma_c0]))
                         | st.floats(-2 * p.sigma_c0, 0.0))
    state = FacetStateArray(e_max, e_p_m, e_p_l, e_n_res, traction)
    return state, e, e_v, lengths, p


def assert_matches_oracle(state, e, e_v, lengths, p):
    t0, new0 = oracles.facet_update(state, e, e_v, lengths, p)
    t1, new1 = facet_update(state, e, e_v, lengths, p)
    # signed zeros too: array_equal takes -0.0 == 0.0
    for f, a, b in [("t", t1, t0)] + [
            (f, getattr(new1, f), getattr(new0, f)) for f in FIELDS]:
        assert np.array_equal(a, b) and \
            np.array_equal(np.signbit(a), np.signbit(b)), f
    return t1, new1


@given(cases())
def test_matches_oracle_on_random_states(case):
    state, e, e_v, lengths, p = case
    before = state.copy()
    assert_matches_oracle(state, e, e_v, lengths, p)
    for f in FIELDS:
        assert np.array_equal(getattr(state, f), getattr(before, f))


@given(params_st, st.integers(0, 2 ** 32 - 1))
def test_matches_oracle_along_committed_paths(p, seed):
    # random walks through tension, shear and deep compression, each step
    # committed: both laws see the same, consistent history
    rng = np.random.default_rng(seed)
    n = 16
    state = FacetStateArray.virgin(n)
    e = np.zeros((n, 3))
    lengths = rng.uniform(1.0, 0.999 * p.lt, n)
    scale = rng.choice([1e-5, 1e-4, 1e-3], size=(1, 3))
    for _ in range(20):
        e += rng.normal(size=(n, 3)) * scale
        e_v = 0.5 * e[:, 0] + rng.normal(scale=1e-4, size=n)
        _, state = assert_matches_oracle(state, e.copy(), e_v, lengths, p)


def bump(x, ulps):
    """x moved by `ulps` ulp, up for ulps > 0."""
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.inf if ulps > 0 else -np.inf)
    return float(x)


@given(params_st, st.integers(-6, 6), st.sampled_from([0.0, -0.0]))
def test_matches_oracle_next_to_each_boundary(p, ulps, z):
    # facets a few ulp inside or outside each boundary, at the points where
    # it touches its floor (pure tension for k <= 1, the plateau, the
    # cohesion), and on the active-set floors themselves
    aE, w = p.alpha * p.E0, np.pi / 4
    floor_t, floor_s2 = active_floors(p)
    r = bump(sigma0(w, p) / p.E0, ulps)
    c = bump(p.sigma_s / (np.sqrt(2.0) * aE), ulps)
    ev = -5.0 * p.sigma_c0 / p.E0      # the boundary hardened above sigma_c0
    rows = [  # strain, e_V, e_max, committed t_N
        ((bump(p.sigma_t / p.E0, ulps), z, z), 0.0, 0.0, 0.0),
        ((r * np.sin(w), r * np.cos(w) / np.sqrt(p.alpha), z), 0.0, 0.0,
         0.0),
        ((bump(floor_t, ulps), z, z), 0.0, bump(floor_t, -ulps), 0.0),
        ((5e-324, z, z), 0.0, 0.0, 0.0),      # e_eff underflows to 0
        ((5e-324, z, z), 0.0, bump(floor_t, ulps), 0.0),
        ((bump(-p.sigma_c0 / p.E0, -ulps), z, z), z, 0.0, z),
        ((bump(-p.sigma_c0 / p.E0, -ulps), z, z), ev, 0.0, z),
        ((bump(-p.sigma_c0 / p.Ed, -ulps), z, z), ev, 0.0,
         -1.5 * p.sigma_c0),
        ((z, bump(p.sigma_s / aE, ulps), z), 0.0, 0.0, 0.0),
        ((z, bump(-np.sqrt(floor_s2) / aE, -ulps), z), 0.0, 0.0, 0.0),
        ((z, c, -c), 0.0, 0.0, 0.0),
        ((-5e-324, z, bump(p.sigma_s / aE, ulps)), 0.0, 0.0, 0.0),
    ]
    n = len(rows)
    state = FacetStateArray.virgin(n)
    state.e_max[:] = [row[2] for row in rows]
    state.traction[:, 0] = [row[3] for row in rows]
    e = np.array([row[0] for row in rows])
    e_v = np.array([row[1] for row in rows])
    assert_matches_oracle(state, e, e_v, np.full(n, 0.5 * p.lt), p)


@pytest.mark.parametrize("Ed_over_E0", [1.0, 1.5])
def test_matches_oracle_through_pore_collapse(Ed_over_E0):
    # confined compression far past the pore-collapse knee and back
    p = MaterialParams(Ed_over_E0=Ed_over_E0, beta=0.2)
    e_n = np.concatenate([np.linspace(0.0, -0.03, 30),
                          np.linspace(-0.03, 0.001, 30)])
    state = FacetStateArray.virgin(3)
    collapsed = False
    for x in e_n:
        e = np.array([[x, 0.0, 0.0], [x, 0.3 * x, 0.0], [x, 0.0, -x]])
        _, state = assert_matches_oracle(state, e, x, 80.0, p)
        collapsed |= bool(np.any(state.e_n_res != 0.0))
    assert collapsed


@given(cases())
def test_tractions_stay_inside_boundaries(case):
    state, e, e_v, lengths, p = case
    t, new = facet_update(state, e, e_v, lengths, p)
    frac = e[:, 0] > 0.0
    tol = 1e-9 * max(p.sigma_t, p.sigma_c0, p.sigma_s)
    t_eff = np.sqrt(t[:, 0] ** 2 + (t[:, 1] ** 2 + t[:, 2] ** 2) / p.alpha)
    omega = np.arctan2(e[frac, 0],
                       np.sqrt(p.alpha * (e[frac, 1] ** 2 + e[frac, 2] ** 2)))
    bound_t = sigma_bt(new.e_max[frac], omega, lengths[frac], p)
    assert np.all(t_eff[frac] <= bound_t * (1 + 1e-12) + tol)
    comp = ~frac
    assert np.all(t[comp, 0] <= 0.0)
    bound_c = sigma_bc(e[comp, 0] - e_v[comp], e_v[comp], p)
    assert np.all(t[comp, 0] >= -bound_c * (1 + 1e-12))
    tau = np.hypot(t[comp, 1], t[comp, 2])
    assert np.all(tau <= sigma_bs(t[comp, 0], p) * (1 + 1e-12))


@given(cases())
def test_e_max_never_decreases(case):
    state, e, e_v, lengths, p = case
    _, new = facet_update(state, e, e_v, lengths, p)
    assert np.all(new.e_max >= state.e_max)
