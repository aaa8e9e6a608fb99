import numpy as np
import pytest

from cromflow.geometry import (
    ComponentMesh,
    GridConfig,
    MeshError,
    SideBC,
    generate_empty_mesh,
    generate_obstacle_mesh,
    interface_topology,
    load_mesh,
    match_side_faces,
    save_mesh,
    triangle_areas,
    OBSTACLE_TAG,
    SIDES,
)


def zero_g(xy):
    return np.zeros_like(xy)


def make_grid(rows, cols, name="empty"):
    bc = {
        "L": SideBC("dirichlet", zero_g),
        "R": SideBC("neumann"),
        "B": SideBC("neumann"),
        "T": SideBC("neumann"),
    }
    return GridConfig(rows, cols, [[name] * cols] * rows, 0.04, bc)


class TestEmptyMesh:
    def test_counts_n2(self):
        m = generate_empty_mesh(2)
        assert m.n_vertices == 9
        assert m.n_triangles == 8
        assert m.boundary_edges.shape[0] == 8

    def test_counts_n4(self):
        m = generate_empty_mesh(4)
        assert m.n_vertices == 25
        assert m.n_triangles == 32

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_unit_area(self, n):
        m = generate_empty_mesh(n)
        assert abs(triangle_areas(m.vertices, m.triangles).sum() - 1.0) < 1e-12

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            generate_empty_mesh(1)

    @pytest.mark.parametrize("n", [2, 4])
    def test_uniform_breakpoints(self, n):
        m = generate_empty_mesh(n)
        for side in SIDES:
            assert np.allclose(m.side_breakpoints(side), np.arange(n + 1) / n)


class TestObstacleMesh:
    def test_square_hole_area(self):
        m = generate_obstacle_mesh(8, "square", 0.25)
        area = triangle_areas(m.vertices, m.triangles).sum()
        assert abs(area - (1.0 - 0.25)) < 1e-10

    def test_circle_hole_area_shoelace(self):
        n = 8
        m = generate_obstacle_mesh(n, "circle", 0.2)
        # the inner ring is the first 4n vertices, counter-clockwise
        hole = m.vertices[: 4 * n]
        x, y = hole[:, 0], hole[:, 1]
        shoelace = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        area = triangle_areas(m.vertices, m.triangles).sum()
        assert abs(area - (1.0 - shoelace)) < 1e-12

    @pytest.mark.parametrize("shape,hw", [("square", 0.25), ("circle", 0.2), ("square", 0.1)])
    def test_traces_match_empty(self, shape, hw):
        n = 8
        mo = generate_obstacle_mesh(n, shape, hw)
        me = generate_empty_mesh(n)
        for side in SIDES:
            assert np.allclose(mo.side_breakpoints(side), me.side_breakpoints(side))
            assert len(mo.side_trace[side]) == len(me.side_trace[side])

    def test_obstacle_tagged(self):
        m = generate_obstacle_mesh(4, "circle", 0.2)
        assert sum(1 for t in m.boundary_tags if t == OBSTACLE_TAG) == 16

    def test_rejects_touching_boundary(self):
        with pytest.raises(ValueError):
            generate_obstacle_mesh(4, "square", 0.5)
        with pytest.raises(ValueError):
            generate_obstacle_mesh(4, "circle", 0.0)


class TestMeshValidation:
    def test_inverted_triangle_rejected(self):
        m = generate_empty_mesh(2)
        tris = m.triangles.copy()
        tris[0] = tris[0][::-1]
        with pytest.raises(MeshError, match="area"):
            ComponentMesh(m.vertices, tris, m.boundary_edges, m.boundary_tags)

    def test_off_line_boundary_edge_rejected(self):
        m = generate_empty_mesh(2)
        verts = m.vertices.copy()
        # shift a vertex used by a Left boundary edge off the x=0 line
        b = m.side_trace["L"][0]
        verts[m.boundary_edges[b][0]] += np.array([1e-6, 0.0])
        with pytest.raises(MeshError):
            ComponentMesh(verts, m.triangles, m.boundary_edges, m.boundary_tags)

    def test_gap_in_trace_rejected(self):
        m = generate_empty_mesh(2)
        keep = [b for b in range(m.boundary_edges.shape[0]) if b != m.side_trace["B"][0]]
        with pytest.raises(MeshError):
            ComponentMesh(
                m.vertices,
                m.triangles,
                m.boundary_edges[keep],
                tuple(m.boundary_tags[b] for b in keep),
            )


class TestMeshFile:
    def test_round_trip(self, tmp_path):
        m = generate_empty_mesh(4)
        path = tmp_path / "mesh.txt"
        save_mesh(m, path)
        m2 = load_mesh(path)
        assert np.array_equal(m.vertices, m2.vertices)
        assert np.array_equal(m.triangles, m2.triangles)
        assert np.array_equal(m.boundary_edges, m2.boundary_edges)
        assert m.boundary_tags == m2.boundary_tags

    def test_round_trip_obstacle(self, tmp_path):
        m = generate_obstacle_mesh(4, "circle", 0.15)
        path = tmp_path / "mesh.txt"
        save_mesh(m, path)
        m2 = load_mesh(path)
        assert np.array_equal(m.vertices, m2.vertices)
        assert m.boundary_tags == m2.boundary_tags

    def test_load_inverted_triangle_fails(self, tmp_path):
        m = generate_empty_mesh(2)
        path = tmp_path / "mesh.txt"
        save_mesh(m, path)
        lines = path.read_text().splitlines()
        # triangle section starts after header + vertex count + 9 vertices
        idx = 2 + 9 + 1
        i, j, k = lines[idx].split()
        lines[idx] = f"{k} {j} {i}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match="area"):
            load_mesh(path)

    def test_load_bad_header(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("NOT-A-MESH\n")
        with pytest.raises(MeshError):
            load_mesh(path)

    def test_load_gap_in_trace(self, tmp_path):
        m = generate_empty_mesh(2)
        path = tmp_path / "mesh.txt"
        save_mesh(m, path)
        lines = path.read_text().splitlines()
        nb = int(lines[-9].split()[1]) if lines[-9].startswith("boundary") else None
        # drop one boundary edge line and fix the count
        bpos = next(i for i, ln in enumerate(lines) if ln.startswith("boundary"))
        count = int(lines[bpos].split()[1])
        lines[bpos] = f"boundary {count - 1}"
        del lines[bpos + 1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError):
            load_mesh(path)


class TestInterfaces:
    @pytest.mark.parametrize(
        "rows,cols,expected",
        [(1, 1, 0), (2, 2, 4), (2, 1, 1), (1, 3, 2), (16, 16, 480), (4, 8, 52)],
    )
    def test_interface_count(self, rows, cols, expected):
        assert rows * (cols - 1) + cols * (rows - 1) == expected
        assert len(interface_topology(make_grid(rows, cols))) == expected

    def test_face_midpoints_coincide_globally(self):
        registry = {
            "empty": generate_empty_mesh(4),
            "square": generate_obstacle_mesh(4, "square", 0.25),
        }
        grid = GridConfig(
            2,
            2,
            [["empty", "square"], ["square", "empty"]],
            0.04,
            {
                "L": SideBC("dirichlet", zero_g),
                "R": SideBC("neumann"),
                "B": SideBC("neumann"),
                "T": SideBC("neumann"),
            },
        )
        ifaces = interface_topology(grid)
        assert len(ifaces) == 4
        for m, n, orientation in ifaces:
            mesh_m = registry[grid.component_name(m)]
            mesh_n = registry[grid.component_name(n)]
            om, on = grid.cell_origin(m), grid.cell_origin(n)
            for bm, bn in match_side_faces(mesh_m, mesh_n, orientation):
                mid_m = mesh_m.vertices[mesh_m.boundary_edges[bm]].mean(axis=0) + om
                mid_n = mesh_n.vertices[mesh_n.boundary_edges[bn]].mean(axis=0) + on
                assert np.linalg.norm(mid_m - mid_n) < 1e-12

    def test_trace_mismatch_raises(self):
        with pytest.raises(MeshError, match="mismatch"):
            match_side_faces(generate_empty_mesh(2), generate_empty_mesh(4), "H")

    def test_grid_config_validation(self):
        with pytest.raises(ValueError):
            make_grid(0, 1)
        grid = make_grid(1, 1)
        with pytest.raises(KeyError):
            grid.validate_components({"other": None})
        with pytest.raises(ValueError):
            GridConfig(1, 1, [["empty"]], 0.04, {s: SideBC("neumann") for s in SIDES})
