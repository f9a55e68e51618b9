import numpy as np
import pytest
from numpy.testing import assert_allclose

from ldpm.geometry import (
    Mesh,
    MeshError,
    build_block_specimen,
    build_fixture,
    load_mesh,
    make_facets,
    select_nodes,
    tet_volume,
    validate_mesh,
    write_mesh,
)
from ldpm.config import ConfigError, build_specimen_from_spec
from ldpm.runner import resolve_constraints
from ldpm.presets import PRESET_NAMES, preset_config

import oracles
from oracles import frame


@pytest.fixture
def single_facet():
    return build_fixture("single-facet", length=100.0, area=100.0)


@pytest.fixture
def single_tet():
    return build_fixture("single-tet")


class TestFixtures:
    def test_single_facet_layout(self, single_facet):
        assert single_facet.n_nodes == 2
        assert single_facet.n_facets == 1
        f = single_facet.facets
        assert_allclose(f.normal[0], [1.0, 0.0, 0.0])
        assert f.edge_length[0] == 100.0
        assert f.projected_area[0] == 100.0

    def test_chain_layout(self):
        mesh = build_fixture("two-particle-chain", n=3)
        assert mesh.n_nodes == 4
        assert mesh.n_facets == 3
        for k in range(mesh.n_facets):
            assert_allclose(mesh.facets.normal[k], [1.0, 0.0, 0.0])

    def test_chain_needs_positive_n(self):
        with pytest.raises(ValueError):
            build_fixture("two-particle-chain", n=0)

    def test_single_tet_layout(self, single_tet):
        assert single_tet.n_nodes == 4
        assert single_tet.n_facets == 12
        assert len(single_tet.tets) == 1

    def test_single_tet_centroid_consistency(self, single_tet):
        pos = single_tet.positions
        f = single_tet.facets
        for k in range(single_tet.n_facets):
            assert_allclose(pos[f.node_i[k]] + f.c_i[k],
                            pos[f.node_j[k]] + f.c_j[k], atol=1e-12)

    def test_fixtures_validate_clean(self, single_facet, single_tet):
        assert validate_mesh(single_facet).ok
        assert validate_mesh(single_tet).ok

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_fixture("dodecahedron")

    def test_facet_frames_orthonormal(self, single_tet):
        for k in range(single_tet.n_facets):
            P = frame(single_tet.facets, k)
            assert np.abs(P.T @ P - np.eye(3)).max() < 1e-12

    def test_tet_facet_areas_tile_the_faces(self, single_tet):
        # the 12 facet triangles partition the tet interior surface built
        # from edge midpoints, face centroids, and the centroid; their raw
        # areas must be positive and the projected areas not exceed them
        f = single_tet.facets
        for k in range(single_tet.n_facets):
            assert f.raw_area[k] > 0
            assert 0 < f.projected_area[k] <= f.raw_area[k] + 1e-12


class TestValidation:
    def test_bad_edge_length_reported(self, single_facet):
        single_facet.facets.edge_length[0] = 90.0
        rep = validate_mesh(single_facet)
        assert not rep.ok
        assert any(v.kind == "edge-length" for v in rep.violations)

    def test_rotated_frame_reported(self, single_facet):
        f = single_facet.facets
        c, s = np.cos(np.radians(1.0)), np.sin(np.radians(1.0))
        f.normal[0] = [c, s, 0.0]
        f.tangent_m[0] = [-s, c, 0.0]
        rep = validate_mesh(single_facet)
        assert any(v.kind == "normal-align" for v in rep.violations)

    def test_projected_area_mismatch_reported(self, single_facet):
        f = single_facet.facets
        f.projected_area[0] = 95.0
        f.true_normal[0] = [0.9, np.sqrt(0.19), 0.0]
        rep = validate_mesh(single_facet)
        assert any(v.kind == "projected-area" for v in rep.violations)

    def test_node_out_of_range_reported(self, single_facet):
        single_facet.facets.node_j[0] = 5
        rep = validate_mesh(single_facet)
        assert any(v.kind == "node-ref" for v in rep.violations)

    @pytest.mark.parametrize("field,kinds", [
        # the centroid's tolerance scales with the stored edge length
        ("edge_length", {"edge-length", "centroid"}),
        ("raw_area", {"projected-area"}),
        ("projected_area", {"projected-area"}),
        ("c_i", {"centroid"}),
        ("normal", {"orthonormal", "normal-align", "projected-area"}),
        ("tangent_m", {"orthonormal"}),
        ("true_normal", {"projected-area"}),
        ("centroid", {"centroid"})])
    def test_nan_facet_value_reported(self, single_tet, field, kinds):
        getattr(single_tet.facets, field)[3] = np.nan
        rep = validate_mesh(single_tet)
        assert {(v.entity, v.kind) for v in rep.violations} \
            == {("facet 3", kind) for kind in kinds}

    # every float column; an infinite raw_area or edge length passes the
    # tolerances that scale with it
    @pytest.mark.parametrize("field,kinds", [
        ("edge_length", {"edge-length"}), ("raw_area", set()),
        ("projected_area", {"projected-area"}), ("centroid", {"centroid"}),
        ("normal", {"orthonormal", "normal-align", "projected-area"}),
        ("tangent_m", {"orthonormal"}), ("tangent_l", {"orthonormal"}),
        ("true_normal", {"projected-area"}), ("c_i", {"centroid"}),
        ("c_j", {"centroid"})])
    def test_infinite_facet_value_reported(self, single_tet, field, kinds):
        getattr(single_tet.facets, field)[3] = np.inf
        rep = validate_mesh(single_tet)
        assert {(v.entity, v.kind) for v in rep.violations} \
            == {("facet 3", kind) for kind in kinds | {"infinite"}}
        assert [v.message for v in rep.violations
                if v.kind == "infinite"] == [f"infinite {field}"]

    def test_centroid_off_its_offsets_reported(self, single_tet):
        single_tet.facets.centroid[3] += [0.0, 1e-3, 0.0]
        (v,) = validate_mesh(single_tet).violations
        assert (v.entity, v.kind) == ("facet 3", "centroid")
        assert v.message == "max |x + c - centroid| = 1.000e-03"

    def test_tet_volume_violations_reported(self, single_tet):
        m = single_tet
        flipped = Mesh(m.positions, m.particle_diameters, m.facets,
                       m.tets[:, [0, 2, 1, 3]], m.tet_volumes,
                       m.cell_volumes)
        (v,) = validate_mesh(flipped).violations
        assert (v.kind, v.entity) == ("tet-volume", "tet 0")
        assert v.message.endswith("<= 0")
        m.tet_volumes[0] *= 1.0 + 1e-6
        kinds = [(v.kind, v.entity) for v in validate_mesh(m).violations]
        assert kinds == [("tet-volume", "tet 0"), ("volume-sum", "mesh")]

    @pytest.mark.parametrize("field", ["tet_volumes", "cell_volumes"])
    def test_nan_volume_reported(self, single_tet, field):
        getattr(single_tet, field)[0] = np.nan
        kinds = {v.kind for v in validate_mesh(single_tet).violations}
        assert kinds == ({"tet-volume", "volume-sum"}
                         if field == "tet_volumes" else {"volume-sum"})


class TestFileIO:
    def test_round_trip_bit_identical(self, tmp_path, single_tet):
        p1 = tmp_path / "a.mesh"
        p2 = tmp_path / "b.mesh"
        write_mesh(single_tet, p1)
        mesh2 = load_mesh(p1)
        write_mesh(mesh2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("make", [
        lambda: build_fixture("single-tet"),
        lambda: build_fixture("two-particle-chain", n=3),
        lambda: preset_config("dog-bone").build_mesh()],
        ids=["single-tet", "chain", "dog-bone"])
    def test_text_is_that_of_the_rows(self, tmp_path, make):
        # the writer formats blocks of rows; its text is the one formatted
        # row by row.  The chain has no tets, and the dog-bone's 9216
        # facets span several blocks
        mesh = make()
        p = tmp_path / "m.mesh"
        write_mesh(mesh, p)
        assert p.read_bytes() == oracles.mesh_text(mesh).encode("utf-8")

    # every fixture and every preset's specimen, built and loaded back
    @pytest.mark.parametrize("source", ["single-facet", "two-particle-chain",
                                        "single-tet", *PRESET_NAMES])
    def test_validates_after_a_round_trip(self, tmp_path, source):
        mesh = preset_config(source).build_mesh() if source in PRESET_NAMES \
            else build_fixture(source)
        assert validate_mesh(mesh).ok
        p = tmp_path / "m.mesh"
        write_mesh(mesh, p)
        assert validate_mesh(load_mesh(p)).ok

    def test_round_trip_preserves_geometry(self, tmp_path):
        mesh = build_block_specimen((20, 20, 20), (1, 1, 1), seed=4)
        p = tmp_path / "block.mesh"
        write_mesh(mesh, p)
        mesh2 = load_mesh(p)
        assert_allclose(mesh2.positions, mesh.positions, rtol=0)
        f1, f2 = mesh.facets, mesh2.facets
        for k in range(mesh.n_facets):
            assert_allclose(f2.centroid[k], f1.centroid[k], rtol=0)
            assert f2.raw_area[k] == f1.raw_area[k]
            assert f2.parent_tet[k] == f1.parent_tet[k]
        assert mesh2.mesh_hash() == mesh.mesh_hash()

    def test_round_trip_keeps_parent_tets(self, tmp_path):
        # the nearest-centroid rule of files without the parent column
        # assigns other tets than the builder on many dog-bone facets
        mesh = preset_config("dog-bone").build_mesh()
        p = tmp_path / "dogbone.mesh"
        write_mesh(mesh, p)
        mesh2 = load_mesh(p)
        assert np.array_equal(mesh2.facets.parent_tet, mesh.facets.parent_tet)
        assert mesh2.mesh_hash() == mesh.mesh_hash()

    def test_file_without_parent_column_loads(self, tmp_path):
        mesh = build_block_specimen((20, 20, 20), (1, 1, 1), seed=4)
        p = tmp_path / "block.mesh"
        write_mesh(mesh, p)
        lines = p.read_text().splitlines()
        start = lines.index(f"FACETS {mesh.n_facets}") + 1
        lines[start:] = [ln.rsplit(" ", 1)[0] for ln in lines[start:]]
        p.write_text("\n".join(lines) + "\n")
        mesh2 = load_mesh(p)
        assert np.array_equal(mesh2.facets.parent_tet, mesh.facets.parent_tet)

    @pytest.mark.parametrize("which", ["past-end", "below-none", "foreign"])
    def test_bad_parent_column_rejected(self, tmp_path, which):
        mesh = build_block_specimen((20, 20, 20), (1, 1, 1), seed=4)
        ends = (mesh.facets.node_i[0], mesh.facets.node_j[0])
        parent = {"past-end": len(mesh.tets), "below-none": -2,
                  "foreign": next(t for t, nodes in enumerate(mesh.tets)
                                  if not set(ends) <= set(nodes))}[which]
        p = tmp_path / "block.mesh"
        write_mesh(mesh, p)
        lines = p.read_text().splitlines()
        k = lines.index(f"FACETS {mesh.n_facets}") + 1
        lines[k] = f"{lines[k].rsplit(' ', 1)[0]} {parent}"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match=f"facet 0 parent tet {parent} "):
            load_mesh(p)

    def test_parent_column_on_some_lines_rejected(self, tmp_path):
        mesh = build_block_specimen((20, 20, 20), (1, 1, 1), seed=4)
        p = tmp_path / "block.mesh"
        write_mesh(mesh, p)
        lines = p.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(" ", 1)[0]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match="parent tet column"):
            load_mesh(p)

    def test_parse_error_has_line_number(self, tmp_path):
        p = tmp_path / "bad.mesh"
        p.write_text("NODES 1\n0 0.0 0.0 oops 1.0\n")
        with pytest.raises(MeshError, match=r"bad\.mesh:2"):
            load_mesh(p)

    def test_short_section_rejected(self, tmp_path):
        p = tmp_path / "short.mesh"
        p.write_text("NODES 3\n0 0 0 0 1\n1 1 0 0 1\n")
        with pytest.raises(MeshError, match="short by 1"):
            load_mesh(p)

    def test_invalid_frame_rejected_on_load(self, tmp_path, single_facet):
        p = tmp_path / "warped.mesh"
        write_mesh(single_facet, p)
        lines = p.read_text().splitlines()
        tok = lines[-1].split()
        tok[10:13] = ["0.9", "0.1", "0.0"]     # m no longer unit/orthogonal
        lines[-1] = " ".join(tok)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match="orthonormal"):
            load_mesh(p)

    def test_tet_with_missing_node_rejected(self, tmp_path):
        p = tmp_path / "tet.mesh"
        p.write_text("NODES 4\n0 0 0 0 1\n1 1 0 0 1\n2 0 1 0 1\n3 0 0 1 1\n"
                     "TETS 1\n0 0 1 2 9\nFACETS 0\n")
        with pytest.raises(MeshError, match="tet 0 references a missing"):
            load_mesh(p)

    def test_noncontiguous_facet_ids_rejected(self, tmp_path):
        p = tmp_path / "chain.mesh"
        write_mesh(build_fixture("two-particle-chain", n=2), p)
        p.write_text(p.read_text().replace("\n1 1 2 ", "\n7 1 2 "))
        with pytest.raises(MeshError, match="facet ids"):
            load_mesh(p)

    # a NaN in a facet's floats fails validation; an infinity, and a NaN
    # in a node entry or a facet's index, is refused with its line before
    # make_facets and the validation compute with it
    @pytest.mark.parametrize("line,column,value,match", [
        ("NODES", 4, "nan", "node 0: particle diameter not finite"),
        ("FACETS", 3, "nan", "projected-area"),
        ("NODES", 1, "inf", r"mesh:2: node 0: non-finite position$"),
        ("NODES", 3, "nan", r"mesh:2: node 0: non-finite position$"),
        ("FACETS", 0, "nan", r"mesh:9: facet 0: non-finite id$"),
        ("FACETS", 1, "inf", r"mesh:9: facet 0: non-finite node_i$"),
        ("FACETS", 2, "nan", r"mesh:9: facet 0: non-finite node_j$"),
        ("FACETS", 3, "inf", r"mesh:9: facet 0: non-finite raw_area$"),
        ("FACETS", 4, "-inf", r"mesh:9: facet 0: non-finite centroid$"),
        ("FACETS", 7, "inf", r"mesh:9: facet 0: non-finite true_normal$"),
        ("FACETS", 11, "inf", r"mesh:9: facet 0: non-finite tangent_m$"),
        ("FACETS", 15, "inf", r"mesh:9: facet 0: non-finite tangent_l$")],
        ids=["d_p", "raw_area", "position-inf", "position-nan", "id-nan",
             "node_i-inf", "node_j-nan", "raw_area-inf", "centroid-inf",
             "true_normal-inf", "tangent_m-inf", "tangent_l-inf"])
    def test_nonfinite_value_rejected_on_load(self, tmp_path, single_tet,
                                              line, column, value, match):
        p = tmp_path / "nan.mesh"
        write_mesh(single_tet, p)
        lines = p.read_text().splitlines()
        at = next(k for k, l in enumerate(lines) if l.startswith(line)) + 1
        tok = lines[at].split()
        tok[column] = value
        lines[at] = " ".join(tok)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match=match):
            load_mesh(p)

    def test_comments_and_blank_lines_ignored(self, tmp_path, single_facet):
        p = tmp_path / "c.mesh"
        write_mesh(single_facet, p)
        text = "# header comment\n\n" + p.read_text()
        p.write_text(text)
        mesh = load_mesh(p)
        assert mesh.n_facets == 1


class TestBlockSpecimen:
    def test_valid_and_deterministic(self):
        m1 = build_block_specimen((40, 40, 80), (2, 2, 4), seed=3)
        m2 = build_block_specimen((40, 40, 80), (2, 2, 4), seed=3)
        assert validate_mesh(m1).ok
        assert m1.mesh_hash() == m2.mesh_hash()
        m3 = build_block_specimen((40, 40, 80), (2, 2, 4), seed=4)
        assert m3.mesh_hash() != m1.mesh_hash()

    def test_facet_count_is_12_per_tet(self):
        m = build_block_specimen((30, 30, 30), (2, 2, 2), seed=1)
        assert m.n_facets == 12 * len(m.tets)

    def test_cell_volumes_sum_to_total(self):
        m = build_block_specimen((40, 40, 80), (2, 2, 4), seed=3, jitter=0.0)
        assert_allclose(m.cell_volumes.sum(), 40 * 40 * 80, rtol=1e-10)

    def test_boundary_nodes_stay_on_faces(self):
        m = build_block_specimen((40, 40, 80), (2, 2, 4), seed=3)
        lo, hi = m.bounding_box()
        assert_allclose(lo, [0, 0, 0], atol=1e-12)
        assert_allclose(hi, [40, 40, 80], atol=1e-12)

    def test_notch_removes_cells(self):
        # a notch of any positive width on two cells across takes the bottom
        # cells of both columns at midspan: half of the cube
        full = build_block_specimen((40, 40, 40), (2, 2, 2), seed=0)
        notched = build_block_specimen((40, 40, 40), (2, 2, 2), seed=0,
                                       notch=(0.5, 1e-3))
        assert len(notched.tets) == len(full.tets) // 2
        assert validate_mesh(notched).ok

    def test_waist_is_the_per_node_map(self):
        # the dog-bone is the prism of its seed with each node's x and y
        # distances from the axis scaled by 1 - (1 - waist) sin^2(pi z / lz)
        size, waist = (30.0, 30.0, 90.0), 0.6
        prism = build_block_specimen(size, (4, 4, 8), seed=7)
        bone = build_block_specimen(size, (4, 4, 8), seed=7, waist=waist)
        ref = []
        for x, y, z in prism.positions:
            s = 1.0 - (1.0 - waist) * np.sin(np.pi * z / size[2]) ** 2
            ref.append([15.0 + (x - 15.0) * s, 15.0 + (y - 15.0) * s, z])
        assert_allclose(bone.positions, ref, rtol=0,
                        atol=4 * np.finfo(float).eps * size[2])

    def test_waist_that_collapses_the_section_is_degenerate(self):
        # 1 - waist rounds to 1: the mid-plane's face nodes, at z = 10
        # exactly, meet on the axis
        with pytest.raises(MeshError, match="degenerate tetrahedron"):
            build_block_specimen((10, 10, 20), (2, 2, 2), waist=1e-300)

    @pytest.mark.parametrize("options", [
        "notch_depth=0.45 notch_width=7.5", ""], ids=["preset", "default"])
    def test_notched_spec_cuts_the_bottom_cells_at_midspan(self, options):
        # on 8 cells of 15 mm, the preset's 7.5 mm notch and the default
        # width of one cell both overlap the two cells beside midspan: their
        # bottom layer goes, 2 x 2 cells of 6 tets
        size = "120.0x30.0x30.0 div=8x2x2 seed=5"
        prism = build_specimen_from_spec(f"prism {size}", 2380.0)
        notched = build_specimen_from_spec(f"notched {size} {options}",
                                           2380.0)
        assert len(notched.tets) == len(prism.tets) - 24
        assert validate_mesh(notched).ok
        centroids = notched.positions[notched.tets].mean(axis=1)
        assert not np.any((np.abs(centroids[:, 0] - 60.0) < 15.0)
                          & (centroids[:, 2] < 15.0))

    def test_notched_bend_preset_has_its_notch(self):
        mesh = preset_config("notched-bend").build_mesh()
        prism = build_block_specimen((120.0, 30.0, 30.0), (8, 2, 2), seed=5)
        assert len(mesh.tets) < len(prism.tets)
        (load,) = select_nodes(mesh, "center-zmax")
        assert_allclose(mesh.positions[load], [60.0, 15.0, 30.0])


class TestConstraints:
    """The per-DoF load rules, applied where directives are compiled into
    the mesh's load program."""

    @pytest.fixture
    def chain(self):
        return build_fixture("two-particle-chain", n=2)

    def test_duplicate_kinematic_rejected(self, chain):
        with pytest.raises(ConfigError, match="conflicting"):
            resolve_constraints(chain, ("fix node:0 uz",
                                        "velocity node:0 uz 1"))

    def test_forces_do_not_collide_with_kinematic(self, chain):
        program = resolve_constraints(chain, ("fix node:0 uz",
                                              "force node:0 uz 0:0,1:5"))
        assert list(program.prescribed) == [2]
        assert program.external_force(1.0)[2] == 5.0

    def test_partition_disjoint_and_complete(self, chain):
        program = resolve_constraints(chain, ("fix node:1 ux",
                                              "fix node:2 rz"))
        free, pres = program.free, program.prescribed
        assert set(free) | set(pres) == set(range(18))
        assert not set(free) & set(pres)
        assert list(pres) == [6, 17]


class TestSelectors:
    @pytest.fixture
    def block(self):
        return build_block_specimen((40, 40, 80), (2, 2, 4), seed=3)

    def test_faces(self, block):
        pos = block.positions
        for sel, axis, val in (("zmin", 2, 0.0), ("zmax", 2, 80.0),
                               ("xmin", 0, 0.0), ("ymax", 1, 40.0)):
            ids = select_nodes(block, sel)
            assert ids
            assert_allclose(pos[ids][:, axis], val, atol=1e-9)

    def test_lateral_excludes_interior(self, block):
        lateral = set(select_nodes(block, "lateral"))
        interior = [n for n, x in enumerate(block.positions)
                    if 0 < x[0] < 40 and 0 < x[1] < 40]
        assert lateral.isdisjoint(interior)

    def test_center_face_node(self, block):
        (nid,) = select_nodes(block, "center-zmax")
        p = block.positions[nid]
        assert p[2] == pytest.approx(80.0)
        assert abs(p[0] - 20) < 15 and abs(p[1] - 20) < 15

    def test_intersection(self, block):
        ids = select_nodes(block, "xmin&zmin")
        pos = block.positions[ids]
        assert_allclose(pos[:, 0], 0.0, atol=1e-9)
        assert_allclose(pos[:, 2], 0.0, atol=1e-9)

    def test_explicit_ids(self, block):
        assert select_nodes(block, "node:7") == [7]
        assert select_nodes(block, "nodes:3,1,2") == [1, 2, 3]

    def test_unknown_selector(self, block):
        with pytest.raises(MeshError):
            select_nodes(block, "everywhere")


def test_node_arrays_cached_and_read_only(single_tet):
    assert single_tet.positions is single_tet.positions
    with pytest.raises(ValueError):
        single_tet.positions[0, 0] = 1.0
    with pytest.raises(ValueError):
        single_tet.particle_diameters[0] = 1.0


def test_violations_listed_facet_by_facet(single_tet):
    f = single_tet.facets
    f.edge_length[5] += 1.0
    f.c_i[2] += 1.0
    f.normal[2] = f.normal[2][::-1]
    kinds = [(v.entity, v.kind) for v in validate_mesh(single_tet).violations]
    assert kinds == [("facet 2", "orthonormal"), ("facet 2", "normal-align"),
                     ("facet 2", "projected-area"), ("facet 2", "centroid"),
                     ("facet 5", "edge-length")]


def test_node_rejects_nonfinite_position():
    mesh = build_fixture("single-facet")
    pos = mesh.positions.copy()
    pos[0, 1] = np.nan
    with pytest.raises(MeshError, match="node 0: non-finite"):
        Mesh(pos, 1.0, mesh.facets, mesh.tets, mesh.tet_volumes,
             mesh.cell_volumes)


@pytest.mark.parametrize("d_p", [-1.0, np.nan, np.inf])
def test_node_rejects_bad_particle_diameter(d_p):
    mesh = build_fixture("single-facet")
    with pytest.raises(MeshError, match="node 1: particle diameter"):
        Mesh(mesh.positions, [1.0, d_p], mesh.facets, mesh.tets,
             mesh.tet_volumes, mesh.cell_volumes)


def test_tet_volume_signed():
    p = np.eye(3)
    assert tet_volume(np.zeros(3), p[0], p[1], p[2]) == pytest.approx(1 / 6)
    assert tet_volume(np.zeros(3), p[1], p[0], p[2]) == pytest.approx(-1 / 6)


def test_make_facet_rejects_coincident_nodes():
    x = np.zeros((2, 3))
    with pytest.raises(MeshError):
        make_facets([0], [1], x, [1.0], x[:1], np.array([[1.0, 0, 0]]))
