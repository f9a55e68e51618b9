"""Mesh data structures for discrete particle systems.

Holds the particles (node coordinates and diameters), the facets (the
potential crack interfaces between adjacent cells) as one struct-of-arrays
table, the tetrahedra (for volumetric strain), and the node selectors that
load directives name.  Meshes are either loaded from facet-data files
produced by an external preprocessor or synthesized as small verification
fixtures and desk-scale block specimens.

Every per-facet quantity is computed for all facets at once.  Dot products
and norms of stacked 3-vectors go through `_dot`, a stacked matmul that
rounds exactly like the 1-D `x @ y`, so the arrays do not depend on how
many facets are built together.

Unit system: mm, N, MPa, tonne, s.  Density is stored as entered (kg/m^3)
and converted to tonne/mm^3 where mass is computed.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, fields

import numpy as np

# Facet invariant tolerances.
TOL_ORTHONORMAL = 1e-10
TOL_NORMAL_ALIGN = 1e-10
TOL_PROJECTED_AREA = 1e-10
TOL_CENTROID = 1e-9
TOL_EDGE_LENGTH = 1e-10
TOL_VOLUME_SUM = 1e-8

DEFAULT_DENSITY = 2380.0  # kg/m^3, of a mesh that names none

# the six DoFs of a particle, in the order of its block of q (DoF 6 n + c)
DOF_NAMES = ("ux", "uy", "uz", "rx", "ry", "rz")


class MeshError(Exception):
    """Raised when a mesh file cannot be parsed or violates invariants;
    `report` is the ValidationReport of the violations, None otherwise."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def _dot(x, y) -> np.ndarray:
    """Row-wise dot product of stacked 3-vectors, rounded as 1-D x @ y."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _norm(x) -> np.ndarray:
    return np.sqrt(_dot(x, x))


@dataclass(eq=False)
class FacetTable:
    """All facets of a mesh as contiguous columns; the row is the facet id."""
    node_i: np.ndarray            # (nf,) int
    node_j: np.ndarray            # (nf,) int
    parent_tet: np.ndarray        # (nf,) tet giving e_V, -1 if none
    edge_length: np.ndarray       # (nf,) mm, |x_J - x_I|
    raw_area: np.ndarray          # (nf,) mm^2, true facet area
    projected_area: np.ndarray    # (nf,) mm^2, raw_area * (n . n0)
    centroid: np.ndarray          # (nf, 3) mm
    normal: np.ndarray            # (nf, 3) n, along the edge I->J
    tangent_m: np.ndarray         # (nf, 3)
    tangent_l: np.ndarray         # (nf, 3)
    true_normal: np.ndarray       # (nf, 3) n0, normal of the facet plane
    c_i: np.ndarray               # (nf, 3) centroid - x_I
    c_j: np.ndarray               # (nf, 3) centroid - x_J

    def __len__(self):
        return len(self.node_i)

    @property
    def axes(self) -> np.ndarray:
        """(nf, 3, 3) local frames with rows n, m, l (P^T per facet)."""
        return np.stack([self.normal, self.tangent_m, self.tangent_l], axis=1)


# facet rows per block of `Mesh.mesh_hash` (48 bytes a row)
_HASH_ROWS = 4096


def _bad_node(pos, d_p):
    """(node, message) of the first node with a non-finite position or a
    particle diameter that is not finite and >= 0; None if there is none."""
    for bad, what in ((~np.isfinite(pos).all(axis=1), "non-finite position"),
                      (~(np.isfinite(d_p) & (d_p >= 0)),
                       "particle diameter not finite and >= 0")):
        if bad.any():
            k = int(np.argmax(bad))
            return k, f"node {k}: {what}"
    return None


class Mesh:
    """Particles with 6 DoF each, facets, and tetrahedra.  Node coordinates
    and particle diameters are read-only arrays."""

    def __init__(self, positions, particle_diameters, facets: FacetTable,
                 tets, tet_volumes, cell_volumes,
                 density: float = DEFAULT_DENSITY):
        pos = np.array(positions, dtype=float).reshape(-1, 3)
        d_p = np.array(np.broadcast_to(particle_diameters, len(pos)),
                       dtype=float)
        bad = _bad_node(pos, d_p)
        if bad:
            raise MeshError(bad[1])
        pos.flags.writeable = d_p.flags.writeable = False
        self._positions = pos
        self.particle_diameters = d_p     # (nn,) mm, zero for virtual nodes
        self.facets = facets
        self.tets = tets                  # (nt, 4) int node indices
        self.tet_volumes = tet_volumes    # (nt,) reference volumes mm^3
        self.cell_volumes = cell_volumes  # (nn,) per-node volume share mm^3
        self.density = density            # kg/m^3

    @property
    def n_nodes(self) -> int:
        return len(self._positions)

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    @property
    def n_dofs(self) -> int:
        return 6 * self.n_nodes

    @property
    def positions(self) -> np.ndarray:
        """(nn, 3) node coordinates in mm, read-only."""
        return self._positions

    def mesh_hash(self) -> str:
        """Digest of all geometric content, used to reject cross-mesh
        comparison of per-facet fields.  The byte stream is, node by node,
        position and diameter, then facet by facet, the node pair, raw area
        and centroid, then the tets."""
        # hashlib reads each contiguous array through the buffer protocol,
        # without a bytes copy; the facet rows go in blocks of _HASH_ROWS
        h = hashlib.sha256()
        h.update(np.column_stack([self.positions, self.particle_diameters]))
        f = self.facets
        rows = np.empty(min(len(f), _HASH_ROWS),
                        dtype=[("nodes", np.int64, (2,)), ("area", np.float64),
                               ("centroid", np.float64, (3,))])
        for lo in range(0, len(f), _HASH_ROWS):
            block = rows[:min(len(f) - lo, _HASH_ROWS)]
            hi = lo + len(block)
            block["nodes"][:, 0] = f.node_i[lo:hi]
            block["nodes"][:, 1] = f.node_j[lo:hi]
            block["area"] = f.raw_area[lo:hi]
            block["centroid"] = f.centroid[lo:hi]
            h.update(block)
        h.update(np.ascontiguousarray(self.tets, np.int64))
        return h.hexdigest()[:16]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        p = self.positions
        return p.min(axis=0), p.max(axis=0)


# ---------------------------------------------------------------------------
# Facet construction
# ---------------------------------------------------------------------------

def make_facets(node_i, node_j, positions, raw_area, centroid, true_normal,
                tangent_m=None, tangent_l=None, parent_tet=None) -> FacetTable:
    """Derive the dependent facet quantities (edge vector, frame, projected
    area, centroid offsets) from the primary data, one row per facet.
    A missing first tangent m is the normalized projection of the global z
    axis (the y axis when n is within 1e-6 of +-z) onto the facet plane; a
    missing second tangent is n x m."""
    node_i = np.asarray(node_i, dtype=int)
    node_j = np.asarray(node_j, dtype=int)
    x_i, x_j = positions[node_i], positions[node_j]
    edge = x_j - x_i
    length = _norm(edge)
    if np.any(length <= 0):
        k = int(np.argmax(length <= 0))
        raise MeshError(f"facet {k}: coincident nodes "
                        f"{node_i[k]}, {node_j[k]}")
    n = edge / length[:, None]
    n0 = np.asarray(true_normal, float)
    n0 = n0 / _norm(n0)[:, None]
    n0 = np.where((_dot(n, n0) < 0)[:, None], -n0, n0)
    if tangent_m is None:
        z = np.zeros_like(n)
        z[np.arange(len(n)), np.where(np.abs(np.abs(n[:, 2]) - 1.0) < 1e-6,
                                      1, 2)] = 1.0
        m = z - _dot(z, n)[:, None] * n
        m = m / _norm(m)[:, None]
    else:
        m = np.asarray(tangent_m, float)
    l = np.cross(n, m) if tangent_l is None else np.asarray(tangent_l, float)
    centroid = np.asarray(centroid, float)
    raw_area = np.asarray(raw_area, float)
    if parent_tet is None:
        parent_tet = np.full(len(node_i), -1)
    return FacetTable(
        node_i=node_i, node_j=node_j,
        parent_tet=np.asarray(parent_tet, dtype=int),
        edge_length=length, raw_area=raw_area,
        projected_area=raw_area * _dot(n, n0), centroid=centroid,
        normal=n, tangent_m=m, tangent_l=l, true_normal=n0,
        c_i=centroid - x_i, c_j=centroid - x_j,
    )


def tet_volume(p0, p1, p2, p3):
    """Signed volume of the tetrahedra with vertices p0..p3, each (3,) or
    stacked (nt, 3)."""
    v = np.linalg.det(np.stack([p1 - p0, p2 - p0, p3 - p0], axis=-2)) / 6.0
    return float(v) if v.ndim == 0 else v


# Each tet carries 12 facets: for each of its six edges (a, b) and each of
# the two faces adjacent to that edge (the third vertex c), the triangle
# spanned by the edge midpoint, the face centroid, and the tet centroid.
_TET_FACETS = np.array([(a, b, c)
                        for a, b in itertools.combinations(range(4), 2)
                        for c in range(4) if c not in (a, b)])


def _tet_facets(tets, positions) -> FacetTable:
    """The 12 facets of every tetrahedron, tet-major."""
    xs = positions[tets]                                # (nt, 4, 3)
    a, b, c = (xs[:, _TET_FACETS[:, k]] for k in range(3))
    mid = 0.5 * (a + b)
    face = (a + b + c) / 3.0
    g = np.broadcast_to(xs.mean(axis=1)[:, None], mid.shape)
    cross = np.cross(face - mid, g - mid).reshape(-1, 3)
    size = _norm(cross)
    centroid = np.stack([mid, face, g], axis=-2).mean(axis=-2)
    return make_facets(
        tets[:, _TET_FACETS[:, 0]].ravel(), tets[:, _TET_FACETS[:, 1]].ravel(),
        positions, raw_area=0.5 * size, centroid=centroid.reshape(-1, 3),
        true_normal=cross / size[:, None],
        parent_tet=np.repeat(np.arange(len(tets)), len(_TET_FACETS)))


def _finalize_cell_volumes(n_nodes, tets, tet_volumes):
    """A quarter of each tet volume to each of its vertices, accumulated in
    tet order."""
    return np.bincount(np.asarray(tets, dtype=int).ravel(),
                       weights=np.repeat(tet_volumes / 4.0, 4),
                       minlength=n_nodes)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    entity: str
    message: str

    def __str__(self):
        return f"[{self.kind}] {self.entity}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind, entity, message):
        self.violations.append(Violation(kind, entity, message))

    def __str__(self):
        return "\n".join(str(v) for v in self.violations)


def validate_mesh(mesh: Mesh) -> ValidationReport:
    """Check every facet and mesh invariant; violations are reported as
    data, not raised, facet by facet and then tet by tet.  Each check
    holds only for a valid value, so that a NaN fails it, quietly; an
    infinity in a float column is a violation of its own, as it can pass
    a tolerance that scales with it.  A raw area <= 0 is one too (a NaN
    area fails the projected-area check alone)."""
    rep = ValidationReport()
    f = mesh.facets
    nn = mesh.n_nodes
    pos = mesh.positions
    ref_ok = (0 <= f.node_i) & (f.node_i < nn) & (0 <= f.node_j) & \
        (f.node_j < nn)
    x_i = pos[np.where(ref_ok, f.node_i, 0)]
    x_j = pos[np.where(ref_ok, f.node_j, 0)]

    infinite = {c.name: np.isinf(getattr(f, c.name)).reshape(len(f), -1)
                .any(axis=1) for c in fields(f)
                if getattr(f, c.name).dtype.kind == "f"}
    with np.errstate(invalid="ignore"):
        A = f.axes                                      # rows of P^T
        dev = np.abs(A @ A.transpose(0, 2, 1) - np.eye(3)).max(
            axis=(1, 2), initial=0.0)
        edge = x_j - x_i
        length = _norm(edge)
        has_length = length > 0
        unit = edge / np.where(has_length, length, 1.0)[:, None]
        align = _norm(np.cross(unit, f.normal))
        a_expected = f.raw_area * _dot(f.normal, f.true_normal)
        gap = np.maximum(_norm(x_i + f.c_i - f.centroid),
                         _norm(x_j + f.c_j - f.centroid))
        area_gap = np.abs(f.projected_area - a_expected)
        length_gap = np.abs(f.edge_length - length)
    checks = (
        ("orthonormal", ~(dev <= TOL_ORTHONORMAL),
         lambda k: f"|P^T P - I| = {dev[k]:.3e}"),
        ("edge-length", ~(length_gap
                          <= TOL_EDGE_LENGTH * np.maximum(1.0, length)),
         lambda k: f"stored {float(f.edge_length[k])!r} vs "
                   f"|x_J - x_I| = {float(length[k])!r}"),
        ("normal-align", has_length & ~(align <= TOL_NORMAL_ALIGN),
         lambda k: f"normal off edge direction by {align[k]:.3e}"),
        ("raw-area", f.raw_area <= 0,
         lambda k: f"raw area {float(f.raw_area[k])!r} <= 0"),
        ("projected-area", ~(area_gap <= TOL_PROJECTED_AREA
                             * np.maximum(1.0, f.raw_area)),
         lambda k: f"stored {float(f.projected_area[k])!r}, "
                   f"expected {float(a_expected[k])!r}"),
        ("centroid", ~(gap <= TOL_CENTROID
                       * np.maximum(1.0, f.edge_length)),
         lambda k: f"max |x + c - centroid| = {gap[k]:.3e}"),
        ("infinite", np.logical_or.reduce(list(infinite.values())),
         lambda k: "infinite " + ", ".join(
             name for name, bad in infinite.items() if bad[k])),
    )
    failed = ~ref_ok
    for _, bad, _ in checks:
        failed |= ref_ok & bad
    for k in np.nonzero(failed)[0]:
        ent = f"facet {k}"
        if not ref_ok[k]:
            rep.add("node-ref", ent, f"references nodes "
                                     f"({f.node_i[k]}, {f.node_j[k]})")
            continue
        for kind, bad, message in checks:
            if bad[k]:
                rep.add(kind, ent, message(k))

    vols = mesh.tet_volumes
    v = tet_volume(*pos[mesh.tets].transpose(1, 0, 2))
    bad_tets = ~(v > 0) | ~(np.abs(v - vols) <= 1e-8 * v)
    for t in np.nonzero(bad_tets)[0]:
        if not v[t] > 0:
            rep.add("tet-volume", f"tet {t}", f"volume {v[t]:.3e} <= 0")
        else:
            rep.add("tet-volume", f"tet {t}", f"stored volume {vols[t]!r} "
                                              f"vs computed {float(v[t])!r}")
    if len(vols):
        total = float(np.sum(vols))
        cell_sum = float(np.sum(mesh.cell_volumes))
        if not abs(cell_sum - total) <= TOL_VOLUME_SUM * total:
            rep.add("volume-sum", "mesh",
                    f"sum V_I = {cell_sum!r} vs total {total!r}")
    return rep


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

# the 16 numbers of a facet line ahead of its optional parent tet
_FACET_LINE_FIELDS = ("id", "node_i", "node_j", "raw_area") + tuple(
    name for name in ("centroid", "true_normal", "tangent_m", "tangent_l")
    for _ in range(3))


def load_mesh(path, density: float = DEFAULT_DENSITY) -> Mesh:
    """Read a facet-data file (see `write_mesh` for the layout) and return a
    validated Mesh.  Raises MeshError with a line number on parse problems;
    on invariant violations its one-line message gives their count and the
    first of them, and its `report` all of them."""
    node_ids, nodes, tets, facets, indices = [], [], [], [], []
    node_lines, tet_lines, facet_lines = [], [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise MeshError(f"{path}: not UTF-8 text ({exc.reason})") from None

    def perr(lineno, msg):
        raise MeshError(f"{path}:{lineno}: {msg}")

    section, remaining = None, 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] in ("NODES", "TETS", "FACETS"):
            if remaining:
                perr(lineno, f"section {section} short by {remaining} entries")
            section = tok[0]
            try:
                remaining = int(tok[1])
            except (IndexError, ValueError):
                perr(lineno, f"malformed section header {line!r}")
            continue
        if section is None or remaining <= 0:
            perr(lineno, f"unexpected data line {line!r}")
        remaining -= 1
        try:
            if section == "NODES":
                if len(tok) != 5:
                    perr(lineno, "node line needs: id x y z d_p")
                node_ids.append(int(tok[0]))
                nodes.append([float(v) for v in tok[1:5]])
                node_lines.append(lineno)
            elif section == "TETS":
                if len(tok) != 5:
                    perr(lineno, "tet line needs: id n1 n2 n3 n4")
                tets.append([int(v) for v in tok[1:5]])
                tet_lines.append(lineno)
            else:
                if len(tok) not in (16, 17):
                    perr(lineno, "facet line needs 16 or 17 fields")
                # the id, node indices and parent tet read with int(), as
                # above, and kept as Python ints until their range is
                # checked; a NaN or an infinity is refused by name below
                indices.append([int(v) if np.isfinite(float(v))
                                else float(v) for v in tok[:3]]
                               + [int(v) for v in tok[16:]])
                facets.append([float(v) for v in tok[3:16]])
                facet_lines.append(lineno)
        except ValueError as exc:
            perr(lineno, f"bad number: {exc}")
    if remaining:
        raise MeshError(f"{path}: section {section} short by {remaining} entries")

    if node_ids != list(range(len(node_ids))):
        raise MeshError(f"{path}: node ids must be contiguous from 0")
    node_vals = np.array(nodes, dtype=float).reshape(-1, 4)
    pos, d_p = node_vals[:, :3], node_vals[:, 3]
    # before the tet volumes, which a non-finite position would make warn
    bad = _bad_node(pos, d_p)
    if bad:
        raise MeshError(f"{path}:{node_lines[bad[0]]}: {bad[1]}")
    nn = len(pos)
    for k, tet in enumerate(tets):
        for v in tet:
            if not 0 <= v < nn:
                raise MeshError(f"{path}:{tet_lines[k]}: tet {k} references "
                                f"a missing node ({v})")
    tets_arr = np.array(tets, dtype=int).reshape(-1, 4)
    tet_vols = tet_volume(*pos[tets_arr].transpose(1, 0, 2))

    if not facets:
        raise MeshError(f"{path}: no facet lines")
    if len({len(row) for row in indices}) > 1:
        raise MeshError(f"{path}: the parent tet column must be on every "
                        "facet line or on none")
    vals = np.array(facets, dtype=float)
    # refused before the arithmetic that takes them loudly: a NaN or an
    # infinity as an index, and an infinity in make_facets (inf / inf) and
    # in validate_mesh's differences; a NaN float fails validation
    unusable = np.column_stack([[[type(v) is float for v in row[:3]]
                                 for row in indices], np.isinf(vals)])
    if unusable.any():
        k = int(np.argmax(unusable.any(axis=1)))
        names = dict.fromkeys(name for name, bad in zip(_FACET_LINE_FIELDS,
                                                        unusable[k]) if bad)
        raise MeshError(f"{path}:{facet_lines[k]}: facet {k}: non-finite "
                        f"{', '.join(names)}")
    # every index checked against its range before it enters an array
    for k, (fid, i, j, *parent) in enumerate(indices):
        if fid != k:
            raise MeshError(f"{path}:{facet_lines[k]}: facet ids must be "
                            f"contiguous from 0, not {fid}")
        if not (0 <= i < nn and 0 <= j < nn):
            raise MeshError(f"{path}:{facet_lines[k]}: facet {k} references "
                            f"missing node ({i}, {j})")
        if parent and not -1 <= parent[0] < len(tets):
            raise MeshError(f"{path}:{facet_lines[k]}: facet {k} parent tet "
                            f"{parent[0]} does not exist")
    ids = np.array(indices, dtype=int)
    ni, nj = ids[:, 1], ids[:, 2]
    if ids.shape[1] == 4:
        parent = ids[:, 3]
        ok = parent == -1
        inside = ~ok
        tet = tets_arr[parent[inside]]
        ok[inside] = (tet == ni[inside, None]).any(axis=1) \
            & (tet == nj[inside, None]).any(axis=1)
        if not ok.all():
            k = int(np.argmin(ok))
            raise MeshError(f"{path}:{facet_lines[k]}: facet {k} parent tet "
                            f"{parent[k]} does not hold both facet nodes")
    else:
        parent = _parent_tets(ni, nj, vals[:, 1:4], tets_arr, pos)
    table = make_facets(
        ni, nj, pos, raw_area=vals[:, 0], centroid=vals[:, 1:4],
        true_normal=vals[:, 4:7], tangent_m=vals[:, 7:10],
        tangent_l=vals[:, 10:13], parent_tet=parent)

    mesh = Mesh(positions=pos, particle_diameters=d_p, facets=table,
                tets=tets_arr, tet_volumes=tet_vols,
                cell_volumes=_finalize_cell_volumes(nn, tets_arr, tet_vols),
                density=density)
    report = validate_mesh(mesh)
    if not report.ok:
        n = len(report.violations)
        raise MeshError(f"{path}: invalid mesh, {n} violation"
                        f"{'s' if n > 1 else ''}, first {report.violations[0]}",
                        report)
    return mesh


def _parent_tets(ni, nj, centroid, tets, pos) -> np.ndarray:
    """For each facet, the tet containing both facet nodes whose centroid is
    closest to the facet centroid (the lowest tet id on ties), or -1.  The
    constitutive volumetric strain of the facet is read from this tet."""
    ends = np.array(list(itertools.combinations(range(4), 2))).T
    nn = len(pos)
    # every tet under each of its six edges, sorted by edge, then tet id
    a, b = tets[:, ends[0]], tets[:, ends[1]]
    keys = (np.minimum(a, b) * nn + np.maximum(a, b)).ravel()
    order = np.argsort(keys, kind="stable")
    keys, owner = keys[order], order // ends.shape[1]
    wanted = np.minimum(ni, nj) * nn + np.maximum(ni, nj)
    first = np.searchsorted(keys, wanted)
    count = np.searchsorted(keys, wanted, side="right") - first
    centers = pos[tets].mean(axis=1)
    parent = np.full(len(ni), -1)
    best = np.full(len(ni), np.inf)
    for s in range(count.max(initial=0)):
        cand = owner[np.minimum(first + s, len(owner) - 1)]
        dist = np.linalg.norm(centers[cand] - centroid, axis=1)
        closer = (s < count) & (dist < best)
        parent[closer], best[closer] = cand[closer], dist[closer]
    return parent


# rows per block of `write_rows`: a block's Python values and text stay
# small beside the arrays they come from
_WRITE_ROWS = 1024


def write_rows(fh, row: str, *columns) -> None:
    """Write one line per entry of the equally long `columns`, `row % values`
    of the Python values (`tolist`) of a block of rows at a time.  `%r`
    writes a float as its repr, shortest and round-tripping."""
    for lo in range(0, len(columns[0]), _WRITE_ROWS):
        block = (c[lo:lo + _WRITE_ROWS].tolist() for c in columns)
        fh.write("".join([row % values for values in zip(*block)]))


def write_mesh(mesh: Mesh, path) -> None:
    """Write the facet-data file: sections `NODES n` (id x y z d_p),
    `TETS n` (id n1 n2 n3 n4) and `FACETS n` (id node_i node_j raw_area,
    centroid, true normal, tangents m and l, each x y z, then the parent
    tet, -1 for none).  Floats use repr so a load round-trips
    bit-identically."""
    f = mesh.facets
    tets = np.asarray(mesh.tets)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"NODES {mesh.n_nodes}\n")
        write_rows(fh, "%d %r %r %r %r\n", np.arange(mesh.n_nodes),
                   *mesh.positions.T, mesh.particle_diameters)
        fh.write(f"TETS {len(tets)}\n")
        write_rows(fh, "%d %d %d %d %d\n", np.arange(len(tets)), *tets.T)
        fh.write(f"FACETS {mesh.n_facets}\n")
        write_rows(fh, "%d %d %d " + "%r " * 13 + "%d\n",
                   np.arange(mesh.n_facets), f.node_i, f.node_j, f.raw_area,
                   *f.centroid.T, *f.true_normal.T, *f.tangent_m.T,
                   *f.tangent_l.T, f.parent_tet)


# ---------------------------------------------------------------------------
# Fixtures and synthetic specimens
# ---------------------------------------------------------------------------

@np.errstate(over="raise", invalid="raise")
def build_fixture(kind: str, n: int = 1, length: float = 100.0,
                  area: float = 100.0, d_p: float = 20.0,
                  density: float = DEFAULT_DENSITY) -> Mesh:
    """Small analytically tractable meshes.

    Kinds:
      single-facet        two nodes joined by one facet along x; the normal
                          stiffness is E_0 A / l
      two-particle-chain  n collinear facets, n + 1 nodes
      single-tet          one regular tetrahedron tessellated into 12 facets
    """
    if not (n >= 1 and length > 0 and area > 0):
        raise ValueError(f"fixture needs n >= 1, length > 0 and area > 0, "
                         f"got n={n!r}, length={length!r}, area={area!r}")
    if kind == "single-facet":
        kind, n = "two-particle-chain", 1
    if kind == "two-particle-chain":
        pos = np.zeros((n + 1, 3))
        pos[:, 0] = np.arange(n + 1) * length
        left, right = np.arange(n), np.arange(1, n + 1)
        facets = make_facets(
            left, right, pos, raw_area=np.full(n, float(area)),
            centroid=0.5 * (pos[left] + pos[right]),
            true_normal=np.tile([1.0, 0.0, 0.0], (n, 1)))
        # no tets: the node volume share is half an edge cell each side
        v = np.zeros(n + 1)
        v[:-1] += area * length / 2
        v[1:] += area * length / 2
        return Mesh(positions=pos, particle_diameters=d_p, facets=facets,
                    tets=np.zeros((0, 4), dtype=int),
                    tet_volumes=np.zeros(0), cell_volumes=v, density=density)
    if kind == "single-tet":
        a = length
        pts = np.array([
            [0.0, 0.0, 0.0],
            [a, 0.0, 0.0],
            [a / 2, a * np.sqrt(3) / 2, 0.0],
            [a / 2, a * np.sqrt(3) / 6, a * np.sqrt(2.0 / 3.0)],
        ])
        tets = np.array([[0, 1, 2, 3]])
        vols = np.array([tet_volume(*pts)])
        return Mesh(positions=pts, particle_diameters=d_p,
                    facets=_tet_facets(tets, pts), tets=tets,
                    tet_volumes=vols,
                    cell_volumes=_finalize_cell_volumes(4, tets, vols),
                    density=density)
    raise ValueError(f"unknown fixture kind {kind!r}")


# Kuhn split of a hex cell into six tets: each tet walks from the cell's
# lowest corner to its highest, stepping one axis at a time in the order of
# one permutation of (x, y, z); neighbouring cells conform.
_KUHN_OFFSETS = np.array([
    np.cumsum([np.zeros(3, int)] + [np.eye(3, dtype=int)[ax] for ax in perm],
              axis=0)
    for perm in itertools.permutations(range(3))])     # (6, 4, 3)


@np.errstate(over="raise", invalid="raise")
def build_block_specimen(size, divisions, d_p=None, jitter=0.15, seed=0,
                         waist=None, notch=None,
                         density: float = DEFAULT_DENSITY) -> Mesh:
    """Desk-scale specimen: a structured grid of hexahedral cells, each split
    into six tetrahedra, with 12 facets per tet.  Interior grid nodes are
    jittered deterministically to break symmetry (mimicking material
    heterogeneity).

    `waist` > 0 makes a dog-bone: after jitter, each node's x and y
    distances from the axis scale by 1 - (1 - waist) sin^2(pi z / lz), so
    the section at mid-height is `waist` times the ends'.  `notch` =
    (depth, width) drops the cells whose x-extent overlaps the open band
    x_mid +- width / 2 and whose centre lies below depth x the height; a
    notch that drops every cell is refused.
    """
    size = np.asarray(size, float)
    dims = np.array(divisions, dtype=int)
    spacing = size / dims
    if waist is not None and not waist > 0:
        raise ValueError(f"waist must be positive, got {waist!r}")
    rng = np.random.default_rng(seed)

    # grid nodes numbered i-major, then j, then k
    ijk = np.indices(dims + 1).reshape(3, -1).T
    coords = ijk * spacing
    # one draw per grid node in numbering order; only nodes strictly
    # interior to the full grid move
    delta = rng.uniform(-0.5, 0.5, size=coords.shape) * jitter * spacing
    interior = np.all((ijk > 0) & (ijk < dims), axis=1)
    coords[interior] += delta[interior]

    cells = np.indices(dims).reshape(3, -1).T
    if notch is not None:
        depth, width = notch
        centre = (cells + 0.5) * spacing
        cells = cells[~((np.abs(centre[:, 0] - size[0] / 2.0)
                         < (spacing[0] + width) / 2.0)
                        & (centre[:, 2] < depth * size[2]))]
        if not len(cells):
            raise ValueError(f"notch (depth {depth!r}, width {width!r} mm) "
                             "leaves no cell of the specimen")

    if waist is not None:
        s = 1.0 - (1.0 - waist) * np.sin(np.pi * coords[:, 2] / size[2]) ** 2
        axis = size[:2] / 2.0
        coords[:, :2] = axis + (coords[:, :2] - axis) * s[:, None]

    corners = cells[:, None, None, :] + _KUHN_OFFSETS      # (nc, 6, 4, 3)
    grid = (corners[..., 0] * (dims[1] + 1) + corners[..., 1]) \
        * (dims[2] + 1) + corners[..., 2]
    # compact node numbering over used nodes only
    used, tets = np.unique(grid.reshape(-1, 4), return_inverse=True)
    tets = tets.reshape(-1, 4)
    pos = coords[used]

    # flip inverted tets (possible after jitter/map), then demand positivity
    vols = tet_volume(*pos[tets].transpose(1, 0, 2))
    flip = vols < 0
    tets[flip] = tets[flip][:, [0, 2, 1, 3]]
    vols[flip] = -vols[flip]
    if np.any(vols <= 0):
        raise MeshError("degenerate tetrahedron in block specimen; "
                        "reduce jitter or mapping severity")

    if d_p is None:
        d_p = 0.4 * float(spacing.min())
    return Mesh(positions=pos, particle_diameters=d_p,
                facets=_tet_facets(tets, pos), tets=tets, tet_volumes=vols,
                cell_volumes=_finalize_cell_volumes(len(pos), tets, vols),
                density=density)


# ---------------------------------------------------------------------------
# Node selection helpers (used by run configs and benchmark presets)
# ---------------------------------------------------------------------------

SURFACE_TOL = 1e-6


def select_nodes(mesh: Mesh, selector: str) -> list[int]:
    """Resolve a node selector string to a sorted list of node ids.

    Selectors: all, xmin/xmax/ymin/ymax/zmin/zmax (coordinate extremes),
    lateral (on a x/y bounding face), center-zmin / center-zmax (node
    closest to the face center), node:<id>, nodes:<id,id,...>.
    """
    pos = mesh.positions
    lo, hi = mesh.bounding_box()
    tol = SURFACE_TOL * max(1.0, float(np.max(hi - lo)))

    def on(axis, value):
        return np.nonzero(np.abs(pos[:, axis] - value) < tol)[0]

    if selector == "all":
        return list(range(mesh.n_nodes))
    if "&" in selector:
        parts = selector.split("&")
        ids = set(select_nodes(mesh, parts[0]))
        for part in parts[1:]:
            ids &= set(select_nodes(mesh, part))
        return sorted(ids)
    faces = {"xmin": (0, lo[0]), "xmax": (0, hi[0]),
             "ymin": (1, lo[1]), "ymax": (1, hi[1]),
             "zmin": (2, lo[2]), "zmax": (2, hi[2])}
    if selector in faces:
        return sorted(on(*faces[selector]).tolist())
    if selector == "lateral":
        ids = set()
        for key in ("xmin", "xmax", "ymin", "ymax"):
            ids.update(on(*faces[key]).tolist())
        return sorted(ids)
    if selector in ("center-zmin", "center-zmax"):
        axis_val = lo[2] if selector.endswith("zmin") else hi[2]
        # never empty: the node that sets the bound lies on its face
        ids = on(2, axis_val)
        center = np.array([(lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2, axis_val])
        d = np.linalg.norm(pos[ids] - center, axis=1)
        return [int(ids[np.argmin(d)])]
    if selector.startswith(("node:", "nodes:")):
        head, _, text = selector.partition(":")
        try:
            ids = sorted(int(v) for v in
                         (text.split(",") if head == "nodes" else [text]))
        except ValueError:
            ids = [-1]
        if not 0 <= ids[0] <= ids[-1] < mesh.n_nodes:
            raise MeshError(f"selector {selector!r}: node ids must be "
                            f"integers in [0, {mesh.n_nodes})")
        return ids
    raise MeshError(f"unknown node selector {selector!r}")
