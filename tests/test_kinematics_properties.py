"""Property tests of the facet kinematics on random block meshes: the
stacked strain operator B must annihilate rigid motions, agree with the
per-facet oracle, and project a uniform strain onto each facet frame.
Translations below the inversion guard must invert no tet, and e_V computed
on demand for some facets must equal the all-tet evaluation.  The elastic
force K q must equal the facet-wise gather B^T W D B q."""

from dataclasses import replace

import numpy as np
from hypothesis import given, strategies as st

from ldpm.assembly import SystemOperators, build_strain_operator, \
    internal_forces, inversion_guard, volumetric_strain
from ldpm.geometry import Mesh, build_block_specimen
from ldpm.material import FacetStateArray, MaterialParams, \
    elastic_tractions

from oracles import facet_strain, frame

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
    ops = SystemOperators(mesh, MaterialParams(alpha=alpha))
    q = np.random.default_rng(seed).normal(scale=1e-3, size=mesh.n_dofs)
    want = ops.gather_forces(elastic_tractions(ops.strains(q), ops.params))
    states = FacetStateArray.virgin(mesh.n_facets)
    f, trial, t, e = internal_forces(q, ops, states, elastic_only=True)
    assert trial is states and t is None and e is None
    np.testing.assert_allclose(f, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())
