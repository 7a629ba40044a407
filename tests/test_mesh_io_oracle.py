"""Oracles for the array kernels behind slicing, subdivision and OFF I/O.

Each oracle below is the per-element Python loop the kernel replaced, kept
verbatim: the per-triangle slice loop, the dict-based midpoint
``subdivide``, the line-by-line OFF writer and the token-by-token reader.
The kernels must match them bit for bit (slices, meshes read back) or byte
for byte (OFF text) on every cone family and on all five flat products at
refine 0-4, including generic axes, slices exactly through vertices and
edge-on triangles.  A negative control shows the slice comparison sees a
1-ulp change in one segment length.
"""

import hashlib
import math

import numpy as np
import pytest

from slidecal import cli, cones1d, cones2d, geom

PRODUCTS = [cones2d.product(c, 1.0) for c in (
    cones1d.Cone1D(cones1d.GAMMA),
    cones1d.Cone1D(cones1d.VERTICAL),
    cones1d.Cone1D(cones1d.GAMMA_PLUS_VERTICAL),
    cones1d.Cone1D(cones1d.SLOPED_PLUS_HORIZONTAL, theta=math.acos(0.55)),
    cones1d.Cone1D(cones1d.VEE, theta=math.pi / 6))]
FAMILIES = [cones2d.t_plus(), cones2d.y_beta(0.01), cones2d.y_beta(0.7),
            cones2d.ybar_beta(1.1), cones2d.w_beta(0.05), cones2d.w_beta(0.6)]
ALPHA = 0.37
# write_off of t_plus at refine 3, as written by the line-by-line writer
T_PLUS_R3_OFF_SHA256 = \
    "158353c34ba72caade810714a209b12606a8fc2a0768b4c07cbacd1ce98f8bc9"


def oracle_slice(mesh, axis, t, alpha):
    axis = geom.unit(axis)
    proj = mesh.vertices @ axis
    d = proj - t
    lengths_on, lengths_off = [], []
    for tri, g in zip(mesh.triangles, mesh.gamma):
        dv = d[tri]
        if (dv == 0.0).sum() >= 2:
            continue
        if (dv > 0).sum() == 0 or (dv < 0).sum() == 0:
            continue
        pts = []
        vs = mesh.vertices[tri]
        for k in range(3):
            if dv[k] == 0.0:
                pts.append(vs[k])
        for k in range(3):
            a, b = k, (k + 1) % 3
            if dv[a] * dv[b] < 0.0:
                s = dv[a] / (dv[a] - dv[b])
                pts.append(vs[a] + s * (vs[b] - vs[a]))
        if len(pts) != 2:
            continue
        seg = float(np.linalg.norm(pts[1] - pts[0]))
        (lengths_on if g else lengths_off).append(seg)
    return math.fsum(lengths_off) + alpha * math.fsum(lengths_on)


def oracle_subdivide(mesh, levels=1):
    verts = [tuple(p) for p in mesh.vertices]
    tris = [tuple(t) for t in mesh.triangles]
    flags = list(mesh.gamma)
    for _ in range(levels):
        midpoint = {}

        def mid(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in midpoint:
                p = tuple(0.5 * (np.array(verts[i]) + np.array(verts[j])))
                midpoint[key] = len(verts)
                verts.append(p)
            return midpoint[key]

        new_tris, new_flags = [], []
        for (a, b, c), f in zip(tris, flags):
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_tris += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
            new_flags += [f, f, f, f]
        tris, flags = new_tris, new_flags
    return geom.Mesh(np.array(verts), np.array(tris), np.array(flags))


def oracle_off_text(mesh):
    lines = ["OFF", f"{mesh.n_vertices} {mesh.n_triangles} 0"]
    for p in mesh.vertices:
        lines.append(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
    for t in mesh.triangles:
        lines.append(f"3 {t[0]} {t[1]} {t[2]}")
    return "\n".join(lines) + "\n"


def oracle_parse(text):
    tokens = text.split()
    nv, nf = int(tokens[1]), int(tokens[2])
    pos = 4
    verts = np.array([float(x) for x in tokens[pos:pos + 3 * nv]]).reshape(nv, 3)
    pos += 3 * nv
    tris = np.empty((nf, 3), dtype=np.int64)
    for i in range(nf):
        if int(tokens[pos]) != 3:
            raise ValueError(f"face {i} is not a triangle")
        tris[i] = [int(tokens[pos + 1]), int(tokens[pos + 2]), int(tokens[pos + 3])]
        pos += 4
    return verts, tris


def same_mesh(a, b):
    return (a.vertices.tobytes() == b.vertices.tobytes()
            and a.triangles.tobytes() == b.triangles.tobytes()
            and a.gamma.tobytes() == b.gamma.tobytes())


def _meshes():
    """(name, mesh) for the products at refine 0-4 and the other families
    at refine 0-2, built one level at a time."""
    out = []
    for spec, top in [(s, 4) for s in PRODUCTS] + [(s, 2) for s in FAMILIES]:
        m = cones2d.build(spec)
        for r in range(top + 1):
            label = spec.beta if spec.cone1d is None else spec.cone1d.variant
            out.append((f"{spec.variant}-{label}-r{r}", m))
            m = oracle_subdivide(m)
    return out


MESHES = _meshes()


def _slices(mesh, rng):
    """Slicing cases of one mesh: (axis, positions).  A generic unit axis at
    random positions; then the y and x axes exactly through vertices, which
    puts vertices in the plane and lays triangle edges in it (edge-on)."""
    cases = [(rng.normal(size=3), None)]
    for axis in ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0)):
        levels = np.unique(mesh.vertices @ geom.unit(axis))[1:-1]
        if levels.size:
            cases.append((axis, levels[np.linspace(0, levels.size - 1, 3).astype(int)]))
    out = []
    for axis, ts in cases:
        proj = mesh.vertices @ geom.unit(axis)
        if ts is None:
            ts = rng.uniform(proj.min(), proj.max(), 4)
        out.append((axis, [float(t) for t in np.unique(ts)]))
    return out


@pytest.fixture(scope="module")
def slice_cases():
    """Every slicing case with the oracle's values, computed once."""
    rng = np.random.default_rng(2024)
    cases = []
    for name, mesh in MESHES:
        for axis, ts in _slices(mesh, rng):
            cases.append((name, mesh, axis, ts,
                          [oracle_slice(mesh, axis, t, ALPHA) for t in ts]))
    return cases


def test_slices_match_the_loop(slice_cases):
    through_vertex = edge_on = 0
    for name, mesh, axis, ts, want in slice_cases:
        assert cones2d._section_energies(mesh, axis, ts, ALPHA) == want, name
        assert cones2d.slice_energy_profile(mesh, axis, ts[0], ALPHA) == want[0]
        zeros = (mesh.vertices @ geom.unit(axis) - ts[0] == 0.0)[mesh.triangles].sum(1)
        through_vertex += int((zeros == 1).sum())
        edge_on += int((zeros >= 2).sum())
    assert through_vertex > 0 and edge_on > 0


def test_slice_oracle_sees_one_ulp(slice_cases, monkeypatch):
    # negative control: np.linalg.norm(axis=1) rounds about one vector in
    # ten differently from the 1-D norm, and the comparison must notice
    monkeypatch.setattr(cones2d, "_segment_lengths",
                        lambda seg: np.linalg.norm(seg, axis=1))
    generic = [(mesh, axis, ts, want) for _, mesh, axis, ts, want in slice_cases
               if not np.isin(axis, (0.0, 1.0)).all()]
    assert any(cones2d._section_energies(mesh, axis, ts, ALPHA) != want
               for mesh, axis, ts, want in generic)


def test_subdivide_matches_the_dict_loop():
    for name, mesh in MESHES:
        assert same_mesh(geom.subdivide(mesh), oracle_subdivide(mesh)), name
    base = cones2d.build(cones2d.w_beta(0.6))
    assert same_mesh(geom.subdivide(base, 3), oracle_subdivide(base, 3))
    assert same_mesh(geom.subdivide(base, 0), base)


def test_off_text_and_parse_match_the_loops(tmp_path):
    path = tmp_path / "m.off"
    for name, mesh in MESHES:
        geom.write_off(mesh, path)
        text = path.read_text()
        assert text == oracle_off_text(mesh), name
        verts, tris = oracle_parse(text)
        back = geom.read_off(path)
        assert back.vertices.tobytes() == verts.tobytes(), name
        assert back.triangles.tobytes() == tris.tobytes(), name
        assert same_mesh(back, mesh), name


def test_off_bytes_golden(tmp_path):
    path = tmp_path / "t_plus.off"
    geom.write_off(cones2d.build(cones2d.t_plus(), refine=3), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == T_PLUS_R3_OFF_SHA256


@pytest.mark.parametrize("damage, message", [
    ("four-sided-face", "face 2 is not a triangle"),
    ("cut-short", "do not fit the file"),
    ("non-numeric-vertex", "could not convert string to float: 'abc'"),
    ("non-numeric-face", "invalid literal for int() with base 10: 'x'"),
])
def test_hostile_off_exits_one_with_one_line(tmp_path, capsys, damage, message):
    mesh = cones2d.build(cones2d.t_plus())
    lines = oracle_off_text(mesh).splitlines()
    face = 2 + mesh.n_vertices    # the first face line
    if damage == "four-sided-face":
        lines[face + 2] = "4 0 1 2 3"
    elif damage == "cut-short":
        lines.pop()
    elif damage == "non-numeric-vertex":
        lines[3] = "0 abc 1"
    else:
        lines[face + 1] = "3 0 x 2"
    path = tmp_path / "m.off"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["energy", "--alpha", "0.5", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert message in err
