"""Property tests of the facet law: `facet_update` runs each branch only on
the facets it governs and evaluates each boundary only on the facets that
can reach it, and must return tractions and trial states bit for bit equal
to the all-facet oracle, on random parameters, committed states and
strains that sit on zeros, subnormals and within a few ulp of the floors
and the boundaries, in sets all in tension, all in compression, mixed,
single and empty.  Its results must also stay inside
the three boundaries and never lower the fracture history.  The envelope
formed from the strains' own sine and cosine stays within 8 eps of
sigma0(arctan2(e_N, sqrt(shear2))), and where e_eff overflows the law keeps
the tractions and states it gave with sigma0 of that angle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra import numpy as hnp

from ldpm import material
from ldpm.material import FLOOR_MARGIN, FacetStateArray, MaterialParams, \
    active_floors, elastic_tractions, facet_update, linear_slack, sigma0, \
    sigma_bc, sigma_bs, sigma_bt

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


KINDS = ["tension", "compression", "mixed", "single", "empty"]


@st.composite
def split_cases(draw, kind):
    """(state, strains, e_v, lengths, params) of a set of the given kind:
    all tension, all compression, mixed, a single facet or empty.  Zeros
    of both signs are among the compression facets' e_N, Ed != E0, and
    committed normal tractions lie around and beyond -sigma_c0.  e_v is a
    per-facet array, and the lengths an array or a scalar."""
    p = dataclasses.replace(draw(params_st), Ed_over_E0=draw(
        st.sampled_from([0.5, 0.8, 1.25, 2.0])))
    n = {"single": 1, "empty": 0}.get(kind)
    if n is None:
        n = draw(st.integers(2, 12))
    frac = np.full(n, kind == "tension" or (
        kind == "single" and draw(st.booleans())))
    if kind == "mixed":
        frac = draw(hnp.arrays(bool, n))
        frac[draw(st.permutations(range(n)))[:2]] = True, False
    sv = strain_values(p)
    col = lambda elems: draw(hnp.arrays(float, n, elements=elems))
    e = draw(hnp.arrays(float, (n, 3), elements=sv))
    e[:, 0] = np.where(frac, col(sv.map(abs).filter(lambda x: x > 0.0)),
                       col(st.sampled_from([0.0, -0.0])
                           | sv.map(lambda x: -abs(x))))
    lengths = draw(st.floats(1.0, 0.999 * p.lt)
                   | hnp.arrays(float, n, elements=st.floats(1.0,
                                                             0.999 * p.lt)))
    traction = draw(hnp.arrays(float, (n, 3),
                               elements=st.floats(-20.0, 20.0)))
    traction[:, 0] = col(st.sampled_from(near([p.sigma_c0], ulps=1))
                         | st.floats(-3 * p.sigma_c0, 0.0))
    state = FacetStateArray(np.abs(col(sv)), col(sv), col(sv),
                            -np.abs(col(sv)), traction)
    return state, e, col(sv), lengths, p


class EvRecorder:
    """e_v of the facets as a function of an index array, which records
    the index arrays it is called with."""

    def __init__(self, values):
        self.values, self.calls = values, []

    def __call__(self, rows):
        self.calls.append(np.array(rows))
        return self.values[rows]


def compression_trial(state, e, p):
    """The trial normal traction of the compression branch on every facet."""
    e_nc = np.where(-state.traction[:, 0] <= p.sigma_c0, p.E0, p.Ed)
    return e_nc * (e[:, 0] - state.e_n_res)


def reaches_compressive_boundary(state, e, p):
    """The compression facets whose trial traction reaches the plateau."""
    trial = compression_trial(state, e, p)
    return np.flatnonzero((e[:, 0] <= 0.0) & (trial <= -p.sigma_c0))


def assert_matches_oracle(state, e, e_v, lengths, p):
    t0, new0 = oracles.facet_update(
        state, e, e_v.values if isinstance(e_v, EvRecorder) else e_v,
        lengths, p)
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


def assert_shares_unchanged_history(state, e, e_v, t, new, p):
    """A history field of `new` is the committed array itself exactly where
    no facet's rule changes it: e_max without a tension facet, e_n_res
    without a clamped compression trial, e_p_m and e_p_l without a slip."""
    comp = e[:, 0] <= 0.0
    e_v = np.broadcast_to(np.asarray(e_v, float), len(e))
    trial = compression_trial(state, e, p)
    clamped = trial != np.clip(trial, -sigma_bc(e[:, 0] - e_v, e_v, p), 0.0)
    aE = p.alpha * p.E0
    tau = np.hypot(aE * (e[:, 1] - state.e_p_m),
                   aE * (e[:, 2] - state.e_p_l))
    slips = tau > sigma_bs(t[:, 0], p)
    for fields, changed in [(("e_max",), ~comp),
                            (("e_n_res",), comp & clamped),
                            (("e_p_m", "e_p_l"), comp & slips)]:
        for f in fields:
            assert (getattr(new, f) is getattr(state, f)) \
                == (not changed.any()), f


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_split_law_matches_oracle(kind, data):
    # each branch runs on its own rows; the result is that of running both
    # on every row, bit for bit, for every kind of set and with e_v as an
    # array, a scalar and a function, which is called once at most, with
    # the facets that reach the compressive boundary
    state, e, e_v, lengths, p = data.draw(split_cases(kind))
    before = state.copy()
    function = EvRecorder(e_v)
    for form in (e_v, data.draw(strain_values(p)), function):
        t, new = assert_matches_oracle(state, e, form, lengths, p)
        assert new.traction is t
        assert_shares_unchanged_history(state, e, getattr(form, "values",
                                                          form), t, new, p)
    for f in FIELDS:
        assert np.array_equal(getattr(state, f), getattr(before, f)), f
    hot = reaches_compressive_boundary(state, e, p)
    assert [c.tolist() for c in function.calls] == \
        ([hot.tolist()] if len(hot) else [])


def test_function_e_v_is_called_once_with_the_boundary_facets():
    # tension facets, zeros of both signs, and compression facets short of
    # the plateau and past it, one of them unloading with Ed
    p = MaterialParams(Ed_over_E0=1.5)
    c0 = p.sigma_c0 / p.E0
    e = np.array([[1e-4, 0.0, 0.0], [-0.5 * c0, 0.0, 0.0],
                  [-2.0 * c0, 1e-5, 0.0], [0.0, 0.0, 0.0], [-0.0, 0.0, 0.0],
                  [2e-3, 1e-4, 0.0], [-3.0 * c0, 0.0, 1e-5],
                  [-0.9 * c0, 0.0, 0.0]])
    state = FacetStateArray.virgin(len(e))
    state.traction[7, 0] = -1.5 * p.sigma_c0
    e_v = EvRecorder(np.linspace(-1e-3, 1e-3, len(e)))
    assert_matches_oracle(state, e, e_v, 50.0, p)
    assert [c.tolist() for c in e_v.calls] == [[2, 6, 7]]


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


EPS = np.finfo(float).eps
# strain components whose squares are normal doubles, so that e_eff is
# formed to rounding; e_N > 0 also down to the subnormals, beside a shear
# part of that range (pure shear)
normal_st = st.floats(1e-150, 1e150)
shear_st = st.just(0.0) | normal_st | normal_st.map(lambda x: -x)


@given(params_st, normal_st | st.sampled_from([5e-324, 1e-310, 1e-200]),
       shear_st, shear_st)
def test_trig_free_sigma0_matches_sigma0_of_omega(p, e_n, e_m, e_l):
    shear2 = p.alpha * (e_m * e_m + e_l * e_l)
    r = np.sqrt(shear2)
    assume(max(e_n, r) >= 1e-150)
    e_eff = np.sqrt(e_n * e_n + shear2)
    got = material._sigma0_strains(np.array([e_n]), np.array([r]),
                                   np.array([e_eff]), p)[0]
    want = sigma0(np.arctan2(e_n, r), p)
    assert abs(got - want) <= 8 * EPS * want


def test_trig_free_sigma0_over_random_directions():
    p = MaterialParams()
    rng = np.random.default_rng(11)
    n = 200_000
    e = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-8.0, 2.0, (n, 1))
    e[:, 0] = np.abs(e[:, 0])
    shear2 = p.alpha * (e[:, 1] ** 2 + e[:, 2] ** 2)
    r, e_eff = np.sqrt(shear2), np.sqrt(e[:, 0] ** 2 + shear2)
    got = material._sigma0_strains(e[:, 0], r, e_eff, p)
    want = sigma0(np.arctan2(e[:, 0], r), p)
    assert np.max(np.abs(got - want) / want) <= 8 * EPS


@pytest.mark.parametrize("r_s", [0.0, 0.2])
def test_overflowing_e_eff_keeps_its_tractions_and_states(r_s):
    # e_N^2 or shear2 overflows: e_max becomes inf, and the envelope decays
    # to 0, or stays sigma0 where H0 = 0 (omega = 0 at r_s = 0): a zero
    # modulus does not soften; over e_eff = inf either bound gives t = 0.
    # The overflow itself warns, as in the diverging runs of the kit
    p = MaterialParams(r_s=r_s)
    e = np.array([[1e200, 0.0, 0.0], [1e200, 1e100, -1e100],
                  [1e-3, -1e200, 0.0], [2e154, 2e154, 0.0],
                  [1e-4, 2e-5, -1e-5], [5e-324, 0.0, 0.0]])
    state = FacetStateArray.virgin(len(e))
    state.e_max[4:] = np.inf, 1.0
    state.e_p_m[:] = 1e-5
    with np.errstate(over="ignore"):
        t, new = facet_update(state, e, 0.0, 50.0, p)
    # rows 2 and 3 overflow shear2 alone or with e_N^2; the last is elastic
    want = np.vstack([0.0 * e[:5], elastic_tractions(e[5:], p)])
    assert np.array_equal(t, want) and \
        np.array_equal(np.signbit(t), np.signbit(want))
    assert np.array_equal(new.e_max, [np.inf] * 5 + [1.0])
    for f in ("e_p_m", "e_p_l", "e_n_res"):
        assert getattr(new, f) is getattr(state, f)


def test_tension_only_facets_never_call_the_compressive_boundaries(
        monkeypatch):
    # tension facets below, on and past the envelope, some softened
    p = MaterialParams()
    rng = np.random.default_rng(3)
    e = np.abs(rng.normal(size=(40, 3))) * [2e-4, 1e-4, 1e-4]
    e[::2, 1:] *= -1.0
    state = FacetStateArray.virgin(40)
    state.e_max[:] = rng.uniform(0.0, 4e-4, 40)
    state.e_p_m[:] = rng.normal(scale=1e-5, size=40)
    t0, new0 = oracles.facet_update(state, e, 0.0, 50.0, p)

    def refuse(*args, **kw):
        raise AssertionError("boundary evaluated on an empty active set")
    monkeypatch.setattr(material, "sigma_bc", refuse)
    monkeypatch.setattr(material, "sigma_bs", refuse)
    t1, new1 = facet_update(state, e, refuse, 50.0, p)
    assert np.any(t1 != elastic_tractions(e, p))
    for a, b in [(t1, t0)] + [(getattr(new1, f), getattr(new0, f))
                              for f in FIELDS]:
        assert np.array_equal(a, b) and \
            np.array_equal(np.signbit(a), np.signbit(b))


def test_trials_share_unchanged_history_and_leave_it_alone():
    # a chain of trials from committed states with plastic and residual
    # strains: trials that slip or collapse nowhere share those arrays,
    # the others copy them, and no trial changes the states it came from
    p = MaterialParams()
    n = 6
    committed = FacetStateArray.virgin(n)
    committed.e_p_m[:] = np.linspace(-1e-4, 1e-4, n)
    committed.e_p_l[:] = 2e-5
    committed.e_n_res[:] = -np.linspace(0.0, 1e-3, n)
    committed.traction[:, 0] = -np.linspace(0.0, 1.5 * p.sigma_c0, n)
    before = committed.copy()
    quiet = np.column_stack([np.full(n, 1e-6), committed.e_p_m,
                             committed.e_p_l])
    slips = np.column_stack([np.full(n, -1e-6), committed.e_p_m + 1e-3,
                             committed.e_p_l])
    collapses = np.column_stack([np.full(n, -0.02), committed.e_p_m,
                                 committed.e_p_l])
    chain, states = [], committed
    for e in (quiet, slips, quiet, collapses, quiet):
        _, trial = assert_matches_oracle(states, e, -0.01, 50.0, p)
        chain.append((states, states.copy(), trial))
        states = trial
    _, first = assert_matches_oracle(committed, quiet, 0.0, 50.0, p)
    assert all(getattr(first, f) is getattr(committed, f)
               for f in ("e_p_m", "e_p_l", "e_n_res"))
    assert chain[1][2].e_p_m is not chain[1][0].e_p_m
    assert chain[3][2].e_n_res is not chain[3][0].e_n_res
    for origin, copied, _ in chain:
        for f in FIELDS:
            assert np.array_equal(getattr(origin, f), getattr(copied, f)), f
    for f in FIELDS:
        assert np.array_equal(getattr(committed, f), getattr(before, f)), f


# how a drawn facet's committed history leaves the virgin set, if it does
HISTORY = ["virgin", "e_max", "e_p_m", "e_p_l", "e_n_res", "t_N"]
# the corners of the unit inf-ball: the worst case of the 1-norm Lipschitz
# bounds behind `linear_slack`
CORNERS = np.array([[a, b, c] for a in (-1.0, 1.0) for b in (-1.0, 1.0)
                    for c in (-1.0, 1.0)])


def no_e_v(rows):
    raise AssertionError(f"e_v read on facets {rows}")


@given(params_st, st.data())
def test_linear_slack_bounds_the_linear_range_of_the_law(p, data):
    # virgin and non-virgin committed states, each leaving the virgin set
    # by one field, next to the floors, and reference strains.  The slack
    # is 0 exactly on the non-virgin facets and, on the virgin ones, that
    # of a virgin history.  Within it, at the corners of its inf-ball and
    # at drawn inner points, the law answers D e from these states and
    # changes no history field but e_max, below the floor, wherever the
    # slack is at least 1e-6 of the strains and the floors, which its
    # margin needs to hold their rounding
    n = data.draw(st.integers(1, 6))
    floor_t, floor_s2 = active_floors(p)
    R = np.sqrt(floor_s2) / p.D[1]          # the shear floor in strain
    sv = strain_values(p)
    col = lambda elems: data.draw(hnp.arrays(float, n, elements=elems))
    kind = np.array(data.draw(st.lists(st.just("virgin")
                                       | st.sampled_from(HISTORY),
                                       min_size=n, max_size=n)))
    e_max = col(st.sampled_from(near([floor_t])).map(abs).filter(
        lambda x: x < floor_t) | st.floats(0.0, floor_t, exclude_max=True))
    e_max[kind == "e_max"] = col(st.sampled_from(near([floor_t])).map(
        abs).filter(lambda x: x >= floor_t) | st.floats(floor_t, 1e-2))[
            kind == "e_max"]
    history = {f: np.where(kind == f, col(sv.filter(lambda x: x != 0.0)),
                           0.0) for f in ("e_p_m", "e_p_l", "e_n_res")}
    traction = data.draw(hnp.arrays(float, (n, 3),
                                    elements=st.floats(-20.0, 20.0)))
    low = np.nextafter(-p.sigma_c0, -np.inf)
    traction[:, 0] = np.where(
        kind == "t_N", col(st.just(low) | st.floats(-3 * p.sigma_c0, low)),
        col(st.sampled_from([-p.sigma_c0, 0.0, -0.0])
            | st.floats(-p.sigma_c0, 0.0)))
    states = FacetStateArray(e_max, history["e_p_m"], history["e_p_l"],
                             history["e_n_res"], traction)
    # reference strains: drawn, or a share c of the way to a floor along
    # a direction where a Lipschitz bound is tight, e_N = e_M = e_L for
    # e_eff, and |e_M| = |e_L| for the shear norm.  There e_N < 0 is about
    # as far from 0 as the shear floor (k = 1: sqrt 2 times its slack), so
    # that a corner reaches the shear floor at t_N near 0, where the shear
    # boundary is the floor itself
    e_ref = data.draw(hnp.arrays(float, (n, 3), elements=sv))
    shape = np.array(data.draw(st.lists(st.sampled_from(
        ["drawn", "tension", "shear"]), min_size=n, max_size=n)))
    c = col(st.floats(0.0, 1.0) | st.sampled_from([0.9, 0.99, 0.999]))
    tension = np.repeat((c * floor_t / np.sqrt(1.0 + 2.0 * p.alpha))[:, None],
                        3, axis=1)
    k = col(st.just(1.0) | st.floats(0.5, 1.5))
    shear = np.column_stack([-k * (1.0 - c) * R, c * R / np.sqrt(2.0),
                             col(st.sampled_from([-1.0, 1.0])) * c * R
                             / np.sqrt(2.0)])
    for name, tight in (("tension", tension), ("shear", shear)):
        e_ref[shape == name] = tight[shape == name]

    slack = linear_slack(states, e_ref, p)
    virgin = kind == "virgin"
    assert np.all(slack[~virgin] == 0.0)
    assert np.array_equal(slack[virgin], linear_slack(
        FacetStateArray.virgin(n), e_ref, p)[virgin])
    assert np.array_equal(linear_slack(states, None, p),
                          linear_slack(states, np.zeros((n, 3)), p))

    rows = np.flatnonzero(slack >= 1e-6 * np.maximum(
        np.abs(e_ref).max(axis=1), max(floor_t, R, p.sigma_c0 / p.E0)))
    inner = data.draw(hnp.arrays(float, (len(rows), 4, 3),
                                 elements=st.floats(-1.0, 1.0)))
    units = np.concatenate([np.broadcast_to(CORNERS, (len(rows), 8, 3)),
                            inner], axis=1)
    r = (1.0 - 1e-9) * slack[rows]
    e = (e_ref[rows, None, :] + r[:, None, None] * units).reshape(-1, 3)
    at = np.repeat(rows, units.shape[1])
    sub = FacetStateArray(*(getattr(states, f)[at] for f in FIELDS))
    lengths = col(st.floats(1.0, 0.999 * p.lt))[at]
    t, trial = facet_update(sub, e, no_e_v, lengths, p)
    assert np.array_equal(t, e * p.D)
    for f in ("e_p_m", "e_p_l", "e_n_res"):
        assert np.array_equal(getattr(trial, f), getattr(sub, f)), f
    assert np.all(trial.e_max < floor_t)
