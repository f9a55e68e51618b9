"""Property tests of the facet kinematics on random block meshes: the
stacked strain operator B must annihilate rigid motions, agree with the
per-facet oracle, and project a uniform strain onto each facet frame.
Translations below the inversion guard must invert no tet, and e_V computed
on demand for some facets must equal the all-tet evaluation.  The elastic
force K q must equal the facet-wise gather B^T W D B q.  After random
committed paths, a certificate's facets must answer the linear law, as
the all-facet law shows, for every q inside its budgets."""

from dataclasses import replace

import numpy as np
from hypothesis import given, strategies as st

from ldpm.assembly import Certificate, SystemOperators, \
    build_strain_operator, internal_forces, inversion_guard, \
    volumetric_strain
from ldpm.geometry import Mesh, build_block_specimen
from ldpm.material import FacetStateArray, MaterialParams, active_floors, \
    elastic_tractions, facet_update, linear_slack

from oracles import facet_strain, force_rounding, frame, gather_all

meshes = st.builds(
    build_block_specimen,
    size=st.tuples(*[st.floats(5.0, 200.0)] * 3),
    divisions=st.tuples(*[st.integers(1, 3)] * 3),
    jitter=st.floats(0.0, 0.3),
    seed=st.integers(0, 2 ** 32 - 1),
)
vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array)


def displacements(mesh, u0, omega, eps):
    """DoF vector of the motion u(x) = u0 + omega x x + eps x with the
    rotation omega at every node."""
    x = mesh.positions
    q = np.zeros((mesh.n_nodes, 6))
    q[:, :3] = u0 + np.cross(omega, x) + x @ eps.T
    q[:, 3:] = omega
    return q.ravel()


@given(mesh=meshes, u0=vectors, omega=vectors)
def test_rigid_motion_gives_zero_strain(mesh, u0, omega):
    q = displacements(mesh, u0, 1e-3 * omega, np.zeros((3, 3)))
    e = build_strain_operator(mesh) @ q
    assert np.abs(e).max() < 1e-12


@given(mesh=meshes, seed=st.integers(0, 2 ** 32 - 1))
def test_operator_matches_facet_oracle(mesh, seed):
    q = np.random.default_rng(seed).normal(size=mesh.n_dofs)
    e = (build_strain_operator(mesh) @ q).reshape(-1, 3)
    want = np.array([facet_strain(q, mesh.facets, k)
                     for k in range(mesh.n_facets)])
    np.testing.assert_allclose(e, want, rtol=0,
                               atol=1e-12 * max(1.0, np.abs(want).max()))


@given(mesh=meshes, a=st.tuples(*[vectors] * 3).map(np.array))
def test_uniform_strain_projects_onto_frames(mesh, a):
    eps = 1e-4 * 0.5 * (a + a.T)
    e = (build_strain_operator(mesh)
         @ displacements(mesh, np.zeros(3), np.zeros(3), eps)).reshape(-1, 3)
    f = mesh.facets
    want = np.array([frame(f, k).T @ (eps @ f.normal[k])
                     for k in range(mesh.n_facets)])
    np.testing.assert_allclose(e, want, rtol=0, atol=1e-12)


@given(mesh=meshes, seed=st.integers(0, 2 ** 32 - 1), u0=vectors,
       omega=vectors)
def test_facet_strain_is_its_pair_jump(mesh, seed, u0, omega):
    # J annihilates rigid motions; B_f q = +-T (a_p + b_p x r_f), with T
    # = P_f / l_f, (a_p, b_p) = J_p q and r_f the centroid less the pair's
    # midpoint, so |B_f q| <= c_a |a_p| + c_b |b_p|
    ops = SystemOperators(mesh, MaterialParams())
    rigid = displacements(mesh, u0, 1e-3 * omega, np.zeros((3, 3)))
    assert np.abs(ops.jump @ rigid).max() <= 1e-14 * np.abs(rigid).max()
    q = np.random.default_rng(seed).normal(size=mesh.n_dofs)
    e = ops.strains(q)
    pairs, f = ops.pairs, mesh.facets
    pair_of = np.empty(mesh.n_facets, dtype=int)
    pair_of[pairs.order] = np.repeat(np.arange(len(pairs.lo)), pairs.count)
    jump = (ops.jump @ q).reshape(-1, 6)[pair_of]
    a, b = jump[:, :3], jump[:, 3:]
    T = np.stack([f.normal, f.tangent_m, f.tangent_l], axis=1) \
        / f.edge_length[:, None, None]
    sign = np.where(f.node_i < f.node_j, 1.0, -1.0)[:, None]
    r = 0.5 * (f.c_i + f.c_j)
    want = sign * np.einsum("fkc,fc->fk", T, a + np.cross(b, r))
    np.testing.assert_allclose(e, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())
    bound = ops.c_a * np.abs(a).max(axis=1) + ops.c_b * np.abs(b).max(axis=1)
    assert np.all(np.abs(e).max(axis=1) <= bound * (1.0 + 1e-12))


def squash(mesh, size):
    """Nodal translations of norm `size` that flatten the tet of smallest
    inradius: its largest face and the opposite vertex move towards each
    other along the face normal."""
    p = mesh.positions[mesh.tets]
    v = np.linalg.det(p[:, 1:] - p[:, :1]) / 6.0
    faces = [(a, b, c, 6 - a - b - c) for a, b, c in
             ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))]
    cross = np.stack([np.cross(p[:, b] - p[:, a], p[:, c] - p[:, a])
                      for a, b, c, _ in faces], axis=1)
    area = np.linalg.norm(cross, axis=2)
    t = np.argmin(3.0 * v / (0.5 * area.sum(axis=1)))
    k = np.argmax(area[t])
    n = cross[t, k] / area[t, k]
    *face, apex = mesh.tets[t][list(faces[k])]
    towards = np.sign(n @ (mesh.positions[apex] - mesh.positions[face[0]]))
    u = np.zeros((mesh.n_nodes, 3))
    u[face] = towards * size * n
    u[apex] = -towards * size * n
    return u


@given(mesh=meshes, seed=st.integers(0, 2 ** 32 - 1), flat=st.booleans())
def test_translations_below_the_guard_invert_no_tet(mesh, seed, flat):
    guard = inversion_guard(mesh)
    assert guard > 0.0
    size = guard * (1.0 - 1e-12)
    if flat:
        u = squash(mesh, size)
    else:
        u = np.random.default_rng(seed).normal(size=(mesh.n_nodes, 3))
        u *= size / np.linalg.norm(u, axis=1).max()
    assert np.linalg.norm(u, axis=1).max() < guard
    q = np.zeros((mesh.n_nodes, 6))
    q[:, :3] = u
    # volumetric_strain raises AssemblyError on a volume <= 0
    assert np.all(volumetric_strain(q.ravel(), mesh) > -1.0 / 3.0)


@given(mesh=meshes, seed=st.integers(0, 2 ** 32 - 1),
       orphans=st.floats(0.0, 1.0))
def test_on_demand_volumetric_equals_all_tets(mesh, seed, orphans):
    rng = np.random.default_rng(seed)
    parent = mesh.facets.parent_tet.copy()
    parent[rng.random(len(parent)) < orphans] = -1
    mesh = Mesh(mesh.positions, mesh.particle_diameters,
                replace(mesh.facets, parent_tet=parent), mesh.tets,
                mesh.tet_volumes, mesh.cell_volumes)
    ops = SystemOperators(mesh, MaterialParams())
    q = rng.uniform(-1.0, 1.0, size=mesh.n_dofs) \
        * (0.99 * ops.inversion_guard / np.sqrt(3.0))
    e_v = ops.facet_volumetric(q)
    assert callable(e_v)
    want = np.where(parent >= 0, volumetric_strain(q, mesh)[parent], 0.0)
    for size in (0, rng.integers(1, mesh.n_facets + 1)):
        facets = rng.choice(mesh.n_facets, size=size, replace=False)
        assert np.array_equal(e_v(facets), want[facets])


@given(mesh=meshes, seed=st.integers(0, 2 ** 32 - 1),
       alpha=st.floats(0.05, 1.0))
def test_stiffness_action_equals_elastic_gather(mesh, seed, alpha):
    ops = SystemOperators(mesh, MaterialParams(alpha=alpha),
                          elastic_only=True)
    q = np.random.default_rng(seed).normal(scale=1e-3, size=mesh.n_dofs)
    want = gather_all(ops, elastic_tractions(ops.strains(q), ops.params))
    states = FacetStateArray.virgin(mesh.n_facets)
    f, trial = internal_forces(q, ops, states)
    assert trial is states
    np.testing.assert_allclose(f, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())


strain_tensors = st.tuples(*[st.floats(-6e-3, 1e-3)] * 6).map(
    lambda v: np.array([[v[0], v[3], v[4]], [v[3], v[1], v[5]],
                        [v[4], v[5], v[2]]]))


@given(mesh=meshes, path=st.lists(strain_tensors, max_size=2),
       confined=st.tuples(st.floats(-9e-3, -6e-3),
                          st.floats(-3.5e-3, -2.6e-3)),
       seed=st.integers(0, 2 ** 32 - 1), edge=st.booleans())
def test_certified_facets_answer_the_linear_law(mesh, path, confined, seed,
                                                edge):
    # E_d != E0, so that the unloading modulus after a committed traction
    # past -sigma_c0 differs from D
    params = MaterialParams(Ed_over_E0=0.5)
    ops = SystemOperators(mesh, params)
    rng = np.random.default_rng(seed)
    size = np.ptp(mesh.positions, axis=0).max()

    def motion(eps, noise):
        return displacements(mesh, 1e-3 * rng.normal(size=3),
                             1e-4 * rng.normal(size=3), eps) \
            + rng.normal(scale=noise * size, size=mesh.n_dofs)

    # a committed path that softens, slips and compresses facets.  It ends
    # in a confined compression of the nodes on one side of a random
    # plane, in a random frame, that takes the facets along its weak axis
    # past -sigma_c0 inside the hardened compressive boundary (e_n_res
    # stays 0).  Then a reference configuration near the origin.
    frame_ = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    path = path + [frame_ @ np.diag([confined[0], confined[0], confined[1]])
                   @ frame_.T]
    side = mesh.positions @ frame_[:, 0]
    inside = np.repeat(side > np.median(side), 6)
    states = FacetStateArray.virgin(mesh.n_facets)
    for i, eps in enumerate(path):
        q = motion(eps, 1e-5)
        if i == len(path) - 1:
            q *= inside
        _, states = facet_update(states, ops.strains(q),
                                 ops.facet_volumetric(q), ops.lengths, params)
    q_ref = motion(3e-5 * (rng.random((3, 3)) - 0.5), 1e-7)
    cert = Certificate(q_ref, ops, states, ops.strains(q_ref))
    states.certificate = cert
    c = cert.certified
    e_ref = ops.strains(q_ref)
    slack = linear_slack(states, e_ref, params)
    pairs, f = ops.pairs, mesh.facets
    pair_of = np.empty(mesh.n_facets, dtype=int)
    pair_of[pairs.order] = np.repeat(np.arange(len(pairs.lo)), pairs.count)

    def pair_motion(p, a, b):
        """A motion of the two nodes of pair p with the jump (a, b)."""
        dq = np.zeros((mesh.n_nodes, 6))
        dq[pairs.hi[p], :3] = a
        dq[pairs.hi[p], 3:] = 0.5 * b
        dq[pairs.lo[p], 3:] = -0.5 * b
        return dq.ravel()

    def rows(k):
        """T = P / l of facet k and its rows' products T_k x r."""
        T = frame(f, k).T / f.edge_length[k]
        return T, np.cross(T, 0.5 * (f.c_i[k] + f.c_j[k]))

    # a random motion and, on the pair of the certified facet closest to
    # its bound, the jump that raises the facet's strain fastest, scaled
    # so that the largest jump is (1 - 1e-9) of its budget at the edge.
    # Then a rigid translation of up to 100 times the largest budget and a
    # rigid rotation, inside the caps: the jumps annihilate them
    reach = 1.0 - 1e-9 if edge else rng.random()
    budget = cert.budget
    scale = [np.median(b[np.isfinite(b)]) if np.isfinite(b).any() else 1e-6
             for b in (budget[:, 0], budget[:, 3])]
    dq = rng.normal(size=mesh.n_dofs) \
        * np.tile(np.repeat(0.3 * np.array(scale), 3), mesh.n_nodes)
    k = None
    if np.any(c):
        # per facet, the strain its pair's budgets allow, against its slack
        bound = ops.c_a * budget[pair_of, 0]
        has_b = ops.c_b > 0
        bound[has_b] += ops.c_b[has_b] * budget[pair_of[has_b], 3]
        k = np.flatnonzero(c)[np.argmax(bound[c] / slack[c])]
        T, Tr = rows(k)
        beta_a, beta_b = budget[pair_of[k], 0], budget[pair_of[k], 3]
        beta_b = beta_b if np.isfinite(beta_b) else 0.0
        row = np.argmax(np.abs(T).sum(axis=1) * beta_a
                        + np.abs(Tr).sum(axis=1) * beta_b)
        dq += pair_motion(pair_of[k], np.sign(T[row]) * beta_a,
                          -np.sign(Tr[row]) * beta_b)
    ratio = np.abs(ops.jump @ dq) / budget.ravel()
    dq *= reach / ratio.max() if ratio.max() > 0 else 0.0
    cap_u, cap_theta = cert.cap[0], cert.cap[3]
    finite = budget[:, 0][np.isfinite(budget[:, 0])]
    tau = min(100.0 * finite.max() if len(finite) else cap_u, 0.2 * cap_u)
    omega = min(0.2 * cap_theta,
                0.05 * cap_u / np.abs(mesh.positions).max())
    shift = displacements(mesh, tau * rng.uniform(-1.0, 1.0, size=3),
                          omega * rng.uniform(-1.0, 1.0, size=3),
                          np.zeros((3, 3)))
    assert np.all(np.abs(dq + shift) < cert.cap)
    q = q_ref + dq + shift
    assert cert.covers(q)
    f_int, trial = internal_forces(q, ops, states)
    assert trial.certificate is cert

    # the bound behind the budgets: each certified strain moved by less
    # than its slack
    e = ops.strains(q)
    assert np.all(np.abs(e - e_ref).max(axis=1)[c] < slack[c])

    # the all-facet law: the elastic law D e itself on the certified
    # facets, their history untouched (e_max only below the floor); the
    # evaluated facets bit for bit
    t_all, want = facet_update(states, e, ops.facet_volumetric(q),
                               ops.lengths, params)
    assert np.array_equal(t_all[c], elastic_tractions(e, params)[c])
    for name in ("e_p_m", "e_p_l", "e_n_res"):
        assert np.array_equal(getattr(want, name)[c], getattr(states, name)[c])
        assert np.array_equal(getattr(trial, name)[c],
                              getattr(states, name)[c])
    assert np.all(want.e_max[c] < active_floors(params)[0])
    for name in ("e_max", "e_p_m", "e_p_l", "e_n_res", "traction"):
        assert np.array_equal(getattr(trial, name)[~c],
                              getattr(want, name)[~c])
    assert np.all(np.abs(f_int - gather_all(ops, t_all))
                  <= 1e-12 * force_rounding(ops, q, t_all))

    if k is not None:
        # a jump a alone, or b alone, of the facet closest to its bound
        # that moves its strain by twice its slack leaves the budgets,
        # with the rigid motion too
        T, Tr = rows(k)
        jumps = [(2.0 * slack[k] / ops.c_a[k]
                  * np.sign(T[np.argmax(np.abs(T).sum(axis=1))]),
                  np.zeros(3))]
        if ops.c_b[k] > 0:
            jumps.append((np.zeros(3), -2.0 * slack[k] / ops.c_b[k]
                          * np.sign(Tr[np.argmax(np.abs(Tr).sum(axis=1))])))
        for a, b in jumps:
            out = q_ref + shift + pair_motion(pair_of[k], a, b)
            assert np.abs(ops.strains(out)[k] - e_ref[k]).max() > slack[k]
            assert not cert.covers(out)

    # a NaN or an infinity in a translation or a rotation leaves the
    # budgets and stops the pass
    for bad in (np.nan, np.inf, -np.inf):
        for dof in (0, 3):
            q_bad = q.copy()
            q_bad[6 * rng.integers(mesh.n_nodes) + dof + rng.integers(3)] = bad
            assert not cert.covers(q_bad)
