"""Property tests of the facet kinematics on random block meshes: the
stacked strain operator B must annihilate rigid motions, agree with the
per-facet oracle, and project a uniform strain onto each facet frame."""

import numpy as np
from hypothesis import given, strategies as st

from ldpm.assembly import build_strain_operator
from ldpm.geometry import build_block_specimen

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
