import math
import os
import re
import stat
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oodlab
from oodlab.core import RngStream, Scene, to_spherical
from oodlab.io import (
    FormatError,
    MeshError,
    ObjectAsset,
    PrimitiveObstacle,
    ScanConfig,
    TriangleMesh,
    atomic_write,
    generate_scan,
    load_asset,
    load_asset_dir,
    read_obj,
    read_scene,
    read_xyz,
    sample_mesh_surface,
    write_scene,
)


def make_scene(n=5, seed=0):
    gen = RngStream(seed, 0).generator()
    return Scene(
        points=gen.uniform(-10, 10, size=(n, 3)),
        labels=gen.integers(1, 4, size=n),
        intensity=gen.uniform(0, 1, size=n).astype(np.float32).astype(np.float64),
    )


class TestSceneFiles:
    def test_round_trip_values(self, tmp_path):
        scene = make_scene(64)
        write_scene(scene, tmp_path / "a.bin", tmp_path / "a.label")
        back = read_scene(tmp_path / "a.bin", tmp_path / "a.label")
        assert np.array_equal(back.points, scene.points.astype(np.float32).astype(np.float64))
        assert np.array_equal(back.labels, scene.labels)
        assert np.array_equal(back.intensity, scene.intensity)

    def test_write_read_write_byte_identity(self, tmp_path):
        scene = make_scene(32, seed=1)
        write_scene(scene, tmp_path / "a.bin", tmp_path / "a.label")
        back = read_scene(tmp_path / "a.bin", tmp_path / "a.label")
        write_scene(back, tmp_path / "b.bin", tmp_path / "b.label")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.label").read_bytes() == (tmp_path / "b.label").read_bytes()

    def test_file_sizes(self, tmp_path):
        scene = make_scene(7)
        write_scene(scene, tmp_path / "a.bin", tmp_path / "a.label")
        assert (tmp_path / "a.bin").stat().st_size == 16 * 7
        assert (tmp_path / "a.label").stat().st_size == 4 * 7

    def test_record_arithmetic(self, tmp_path):
        # 32 bytes of point data = two records
        (tmp_path / "two.bin").write_bytes(struct.pack("<8f", *range(8)))
        (tmp_path / "two.label").write_bytes(struct.pack("<2I", 1, 2))
        scene = read_scene(tmp_path / "two.bin", tmp_path / "two.label")
        assert scene.num_points == 2

    def test_semantic_class_low_16_bits(self, tmp_path):
        (tmp_path / "one.bin").write_bytes(struct.pack("<4f", 1, 2, 3, 0))
        (tmp_path / "one.label").write_bytes(struct.pack("<I", 0x00010005))
        scene = read_scene(tmp_path / "one.bin", tmp_path / "one.label")
        assert scene.labels[0] == 5

    def test_truncated_point_file(self, tmp_path):
        (tmp_path / "bad.bin").write_bytes(b"\x00" * 20)
        (tmp_path / "bad.label").write_bytes(struct.pack("<I", 1))
        with pytest.raises(FormatError):
            read_scene(tmp_path / "bad.bin", tmp_path / "bad.label")

    @pytest.mark.parametrize("bin_size, label_size, message", [
        (17, 5, "a.bin: truncated point file (17 bytes)"),
        (3, 4, "a.bin: truncated point file (3 bytes)"),
        (0, 0, "a.bin: truncated point file (0 bytes)"),
        (16, 5, "a.label: truncated label file (5 bytes)"),
        (32, 4, "a.label: 1 labels for 2 points"),
    ])
    def test_partial_records_rejected(self, tmp_path, bin_size, label_size, message):
        # trailing bytes are an error, not silently dropped
        (tmp_path / "a.bin").write_bytes(bytes(bin_size))
        (tmp_path / "a.label").write_bytes(struct.pack("<I", 1).ljust(label_size, b"\0"))
        with pytest.raises(FormatError, match=re.escape(message)):
            read_scene(tmp_path / "a.bin", tmp_path / "a.label")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_point_rejected(self, tmp_path, bad):
        (tmp_path / "a.bin").write_bytes(struct.pack("<8f", 1, 2, 3, 0, 4, bad, 6, 0))
        (tmp_path / "a.label").write_bytes(struct.pack("<2I", 1, 1))
        with pytest.raises(FormatError, match="a.bin: scene points must be finite"):
            read_scene(tmp_path / "a.bin", tmp_path / "a.label")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_signalling_nan_read_without_warning(self, tmp_path):
        snan = struct.pack("<I", 0x7F800001)  # float32 signalling NaN
        (tmp_path / "a.label").write_bytes(struct.pack("<I", 1))
        (tmp_path / "a.bin").write_bytes(struct.pack("<3f", 1, 2, 3) + snan)
        with pytest.raises(FormatError, match="a.bin: intensity must be finite"):
            read_scene(tmp_path / "a.bin", tmp_path / "a.label")
        (tmp_path / "a.bin").write_bytes(snan + struct.pack("<3f", 2, 3, 0))
        with pytest.raises(FormatError, match="a.bin: scene points must be finite"):
            read_scene(tmp_path / "a.bin", tmp_path / "a.label")

    @pytest.mark.parametrize("unreadable", ["bin", "label"])
    def test_unreadable_file_named(self, tmp_path, unreadable):
        # a directory, or a missing file, in place of either file of the pair
        (tmp_path / "a.bin").write_bytes(struct.pack("<4f", 1, 2, 3, 0))
        (tmp_path / "a.label").write_bytes(struct.pack("<I", 1))
        (tmp_path / f"a.{unreadable}").unlink()
        (tmp_path / f"a.{unreadable}").mkdir()
        with pytest.raises(FormatError, match=rf"a\.{unreadable}: cannot read: Is a directory"):
            read_scene(tmp_path / "a.bin", tmp_path / "a.label")
        (tmp_path / f"a.{unreadable}").rmdir()
        with pytest.raises(FormatError, match=rf"a\.{unreadable}: cannot read: No such file"):
            read_scene(tmp_path / "a.bin", tmp_path / "a.label")

    def test_count_mismatch(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(struct.pack("<8f", *range(8)))
        (tmp_path / "a.label").write_bytes(struct.pack("<I", 1))
        with pytest.raises(FormatError):
            read_scene(tmp_path / "a.bin", tmp_path / "a.label")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6))
    def test_arbitrary_bytes_load_or_format_error(self, tmp_path_factory, data, n):
        # whole records of arbitrary bytes (NaN and inf coordinates, any
        # label word) or byte strings of any length
        points = data.draw(st.binary(min_size=16 * n, max_size=16 * n) | st.binary(max_size=100))
        labels = data.draw(st.binary(min_size=4 * n, max_size=4 * n) | st.binary(max_size=30))
        base = tmp_path_factory.getbasetemp()
        (base / "fuzzed.bin").write_bytes(points)
        (base / "fuzzed.label").write_bytes(labels)
        try:
            scene = read_scene(base / "fuzzed.bin", base / "fuzzed.label")
        except FormatError:
            return
        assert scene.num_points == len(points) // 16 == len(labels) // 4
        assert np.all(np.isfinite(scene.points)) and np.all(np.isfinite(scene.intensity))
        assert np.all((scene.labels >= 0) & (scene.labels <= 0xFFFF))

    def test_unwritable_path(self, tmp_path):
        scene = make_scene(2)
        with pytest.raises(OSError):
            write_scene(scene, tmp_path / "no_dir" / "a.bin", tmp_path / "a.label")


def fail_rename(src, dst):
    raise OSError("rename failed")


class TestAtomicWrite:
    def test_text_as_utf8_and_bytes_as_is(self, tmp_path):
        atomic_write(tmp_path / "t.csv", "a,\u00e9\nb\n")
        atomic_write(tmp_path / "b.bin", b"\x00\r\n")
        assert (tmp_path / "t.csv").read_bytes() == "a,\u00e9\nb\n".encode("utf-8")
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.bin", "t.csv"]

    def test_existing_file_intact_when_rename_fails(self, tmp_path, monkeypatch):
        path = tmp_path / "a.csv"
        path.write_text("old\n")
        monkeypatch.setattr(os, "replace", fail_rename)
        with pytest.raises(OSError, match="rename failed"):
            atomic_write(path, "new\n")
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_mode_is_open_mode_less_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            atomic_write(tmp_path / "a.csv", "new\n")
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "a.csv").stat().st_mode) == mode

    @pytest.mark.parametrize("kind", ["file", "directory"])
    def test_path_tmp_left_alone(self, tmp_path, kind):
        # the temp name is new for each write, so <path>.tmp is the user's
        tmp = tmp_path / "a.csv.tmp"
        if kind == "file":
            tmp.write_text("keep\n")
        else:
            tmp.mkdir()
        atomic_write(tmp_path / "a.csv", "new\n")
        assert (tmp_path / "a.csv").read_text() == "new\n"
        assert tmp.is_file() == (kind == "file") and tmp.is_dir() == (kind == "directory")
        if kind == "file":
            assert tmp.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.csv.tmp"]

    def test_scene_files_intact_when_rename_fails(self, tmp_path, monkeypatch):
        write_scene(make_scene(4), tmp_path / "a.bin", tmp_path / "a.label")
        before = [(tmp_path / n).read_bytes() for n in ("a.bin", "a.label")]
        monkeypatch.setattr(os, "replace", fail_rename)
        with pytest.raises(OSError, match="rename failed"):
            write_scene(make_scene(9, seed=1), tmp_path / "a.bin", tmp_path / "a.label")
        assert [(tmp_path / n).read_bytes() for n in ("a.bin", "a.label")] == before

    def test_only_io_writes_files(self):
        """Every file the package writes goes through ``atomic_write``: no
        other module renames files, dumps arrays or opens a file to write."""
        writes = re.compile(
            r"os\.replace|\.tofile\(|\.write_(text|bytes)\("
            r"|\bopen\([^)]*[\"'][rbt]*[wxa+][rwxabt+]*[\"']"
        )
        package = Path(oodlab.__file__).parent
        offenders = [
            f"{path.name}:{lineno}: {line.strip()}"
            for path in sorted(package.glob("*.py")) if path.name != "io.py"
            for lineno, line in enumerate(path.read_text().splitlines(), start=1)
            if writes.search(line)
        ]
        assert offenders == []


class TestAssets:
    def test_read_xyz(self, tmp_path):
        lines = ["# comment", ""] + [f"{i} {i + 1} {i + 2}" for i in range(12)]
        path = tmp_path / "obj.xyz"
        path.write_text("\n".join(lines))
        asset = read_xyz(path)
        assert asset.points.shape == (12, 3)
        assert asset.source_id == "obj"

    def test_read_xyz_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2\n")
        with pytest.raises(FormatError):
            read_xyz(path)

    def test_asset_invariants(self):
        with pytest.raises(ValueError):
            ObjectAsset(np.zeros((5, 3)))  # too few points
        with pytest.raises(ValueError):
            ObjectAsset(np.zeros((12, 3)))  # empty bounding box

    def test_read_obj_fan_triangulation(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1/1 2/2 3/3 4/4\n"
        )
        mesh = read_obj(path)
        assert mesh.triangles.shape == (2, 3)
        assert np.allclose(mesh.areas().sum(), 1.0)

    @pytest.mark.parametrize("text, message", [
        ("v 0 0 0\nv 1 0 0\nv 0 1 x\nf 1 2 3\n", ":3: could not convert string to float: 'x'"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 q\n", ":4: bad face index 'q'"),
    ], ids=["vertex", "face"])
    def test_read_obj_error_names_line(self, tmp_path, text, message):
        path = tmp_path / "bad.obj"
        path.write_text(text)
        with pytest.raises(FormatError) as err:
            read_obj(path)
        assert str(err.value) == f"{path}{message}"

    def test_obj_without_faces_rejected(self, tmp_path):
        path = tmp_path / "v.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
        with pytest.raises(FormatError):
            read_obj(path)

    def test_load_asset_dispatch(self, tmp_path):
        (tmp_path / "a.xyz").write_text("\n".join(f"{i} 0 0" for i in range(11)))
        (tmp_path / "b.obj").write_text(
            "v 0 0 0\nv 1 0 0\nv 0 0 1\nf 1 2 3\n"
        )
        a = load_asset(tmp_path / "a.xyz")
        b = load_asset(tmp_path / "b.obj", count=50, rng=RngStream(0, 0))
        assert a.points.shape == (11, 3)
        assert b.points.shape == (50, 3)
        both = load_asset_dir(tmp_path, count=50, rng=RngStream(0, 0))
        assert [x.source_id for x in both] == ["a", "b"]


    def test_obj_mesh_loads_z_up(self, tmp_path):
        # meshes are +y-up (ShapeNet); a loaded asset is +z-up: the sampled
        # points turn rigidly, the former y coordinate becoming z
        path = tmp_path / "tall.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 5 0\nv 0 0 1\nf 1 2 3\nf 1 3 4\nf 1 4 2\n")
        raw = sample_mesh_surface(read_obj(path), 200, RngStream(0, 0)).points
        pts = load_asset(path, count=200, rng=RngStream(0, 0)).points
        assert np.argmax(np.ptp(raw, axis=0)) == 1 and np.argmax(np.ptp(pts, axis=0)) == 2
        assert np.array_equal(pts[:, 2], raw[:, 1])

        def dist(p):
            return np.linalg.norm(p[:, None] - p[None], axis=-1)

        assert np.max(np.abs(dist(pts) - dist(raw))) < 1e-9

    def test_xyz_asset_loads_unchanged(self, tmp_path):
        pts = RngStream(1, 0).generator().normal(size=(20, 3))
        (tmp_path / "p.xyz").write_text("\n".join(" ".join(map(repr, p)) for p in pts.tolist()))
        assert np.array_equal(load_asset(tmp_path / "p.xyz").points, pts)

    UNUSABLE = {
        "few.xyz": "\n".join(f"{i} 0 0" for i in range(5)),
        "flat.xyz": "\n".join("1 2 3" for _ in range(12)),
        "line.obj": "v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n",
        "word.obj": "v 0 0 x\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    }
    # the line an error names, after the path
    LINE = {"word.obj": ":1"}

    @pytest.mark.parametrize("name, message", [
        ("few.xyz", "at least 10 points"),
        ("flat.xyz", "bounding box is empty"),
        ("line.obj", "degenerate"),
        ("word.obj", "could not convert"),
    ])
    def test_unusable_asset_is_format_error(self, tmp_path, name, message):
        (tmp_path / name).write_text(self.UNUSABLE[name])
        where = re.escape(str(tmp_path / name) + self.LINE.get(name, ""))
        with pytest.raises(FormatError, match=rf"^{where}: .*{message}"):
            load_asset(tmp_path / name, count=50, rng=RngStream(0, 0))


class TestMeshSampling:
    def unit_square(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
        tris = np.array([[0, 1, 2], [0, 2, 3]])
        return TriangleMesh(verts, tris)

    def test_containment(self):
        asset = sample_mesh_surface(self.unit_square(), 1000, RngStream(1, 0))
        pts = asset.points
        assert np.all((pts[:, 0] >= 0) & (pts[:, 0] <= 1))
        assert np.all((pts[:, 1] >= 0) & (pts[:, 1] <= 1))
        assert np.all(pts[:, 2] == 0)

    def test_triangle_mean_is_centroid(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
        asset = sample_mesh_surface(mesh, 100_000, RngStream(2, 0))
        mean = asset.points.mean(axis=0)
        assert np.all(np.abs(mean - [1 / 3, 1 / 3, 0.0]) < 0.02)

    def test_area_weighting(self):
        # two triangles in z=0 with areas 0.5 and 1.5 (ratio 1:3)
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [10, 0, 0], [13, 0, 0], [10, 1, 0]],
            dtype=float,
        )
        mesh = TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
        asset = sample_mesh_surface(mesh, 100_000, RngStream(3, 0))
        frac_small = np.mean(asset.points[:, 0] < 5.0)
        assert abs(frac_small - 0.25) < 0.02 * 1.0  # within 2% absolute

    def test_zero_area_triangles_never_selected(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]], dtype=float)
        tris = np.array([[0, 1, 2], [3, 3, 3]])
        mesh = TriangleMesh(verts, tris)
        asset = sample_mesh_surface(mesh, 2000, RngStream(4, 0))
        assert np.all(asset.points[:, 2] == 0.0)

    def test_all_degenerate_rejected(self):
        verts = np.array([[0, 0, 0], [1, 1, 1]], dtype=float)
        with pytest.raises(MeshError):
            TriangleMesh(verts, np.array([[0, 0, 1]]))

    def test_count_minimum(self):
        with pytest.raises(ValueError):
            sample_mesh_surface(self.unit_square(), 5, RngStream(0, 0))


class TestGenerateScan:
    def test_ray_plane_hand_case(self):
        # elevation -45 deg from z=2 hits ground z=0 at (2, 0, 0), range 2*sqrt(2)
        cfg = ScanConfig(
            sensor_height=2.0,
            beam_elevations=(math.radians(-45.0),),
            azimuth_step=math.pi / 2,
            ground_z=0.0,
            max_range=10.0,
        )
        scene = generate_scan(cfg, RngStream(0, 0))
        idx = np.argmin(np.linalg.norm(scene.points - [2.0, 0.0, 0.0], axis=1))
        assert np.allclose(scene.points[idx], [2.0, 0.0, 0.0], atol=1e-9)
        rng = np.linalg.norm(scene.points[idx] - [0, 0, 2.0])
        assert rng == pytest.approx(2 * math.sqrt(2))

    def test_upward_beam_never_returns(self):
        cfg = ScanConfig(
            sensor_height=2.0,
            beam_elevations=(math.radians(-45.0), math.radians(10.0)),
            azimuth_step=math.pi / 2,
            max_range=100.0,
        )
        scene = generate_scan(cfg, RngStream(0, 0))
        lats = to_spherical(scene.points - [0, 0, 2.0])[:, 1]
        assert np.all(lats < 0)  # only the downward beam returned

    def test_all_miss_raises(self):
        cfg = ScanConfig(
            sensor_height=2.0,
            beam_elevations=(math.radians(10.0),),
            azimuth_step=math.pi / 2,
        )
        with pytest.raises(ValueError):
            generate_scan(cfg, RngStream(0, 0))

    def test_box_nearest_hit_and_label(self):
        box = PrimitiveObstacle("box", center=(5.0, 0.0, 1.0), size=(1.0, 4.0, 2.0), label=2)
        cfg = ScanConfig(
            sensor_height=1.0,
            beam_elevations=(0.0,),
            azimuth_step=math.pi / 2,
            max_range=50.0,
            obstacles=(box,),
        )
        scene = generate_scan(cfg, RngStream(0, 0))
        # the azimuth-0 horizontal ray must hit the near box face at x=4.5
        hit = scene.points[np.argmin(np.abs(scene.points[:, 1]))]
        assert np.allclose(hit, [4.5, 0.0, 1.0], atol=1e-9)
        assert scene.labels[np.argmin(np.abs(scene.points[:, 1]))] == 2

    def test_cylinder_hit(self):
        cyl = PrimitiveObstacle("cylinder", center=(6.0, 0.0, 1.0), size=(1.0, 2.0), label=3)
        cfg = ScanConfig(
            sensor_height=1.0,
            beam_elevations=(0.0,),
            azimuth_step=math.pi / 2,
            max_range=50.0,
            obstacles=(cyl,),
        )
        scene = generate_scan(cfg, RngStream(0, 0))
        hit_idx = int(np.argmin(scene.points[:, 0] * 0 + np.abs(scene.points[:, 1])))
        assert np.allclose(scene.points[hit_idx], [5.0, 0.0, 1.0], atol=1e-9)
        assert scene.labels[hit_idx] == 3

    def test_points_on_angular_grid(self, small_scan):
        cfg_step = math.radians(2.0)
        sph = to_spherical(small_scan.points - [0.0, 0.0, 1.7])
        lon_steps = (sph[:, 0] + math.pi) / cfg_step
        assert np.max(np.abs(lon_steps - np.round(lon_steps))) < 1e-9 / cfg_step
        beams = np.deg2rad(np.linspace(-25.0, 3.0, 16))
        lat_err = np.min(np.abs(sph[:, 1][:, None] - beams[None, :]), axis=1)
        assert np.max(lat_err) < 1e-9

    def test_determinism(self):
        cfg = ScanConfig(random_obstacles=5, azimuth_step=math.radians(3.0))
        a = generate_scan(cfg, RngStream(11, 2))
        b = generate_scan(cfg, RngStream(11, 2))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(azimuth_step=0.0)
        with pytest.raises(ValueError):
            ScanConfig(beam_elevations=())
        with pytest.raises(ValueError):
            ScanConfig(max_range=-1.0)
