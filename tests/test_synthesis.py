import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from oodlab.core import (
    LabelSpace,
    RngStream,
    Scene,
    from_spherical,
    sample_uniform,
    to_spherical,
)
from oodlab.io import ScanConfig, generate_scan
from oodlab.synthesis import (
    MergeReport,
    PlacementFailed,
    SynthesisConfig,
    check_overlap,
    merge_spherical,
    place_object,
    resize,
    resize_existing,
    snap_to_ground,
    synthesize_scene,
    window_min_radius,
)

import _benchmark
from conftest import ScriptedRng, ball_asset, grid_scene
from oracles import (
    components_brute_force,
    components_pair_graph,
    window_min_radius_brute_force,
)


class TestPlaceObject:
    def centered_square(self):
        pts = np.array([[0.5, 0.5, 0.3], [-0.5, 0.5, 0.3],
                        [0.5, -0.5, 0.3], [-0.5, -0.5, 0.3]])
        return pts

    def test_pure_translation(self):
        scene = grid_scene(extent=15.0)
        cfg = SynthesisConfig()
        rng = ScriptedRng(uniforms=[10.0, 0.0])  # d_x = 10, d_lon = 0
        out = place_object(self.centered_square(), scene, cfg, rng)
        centroid = out[:, :2].mean(axis=0)
        assert np.allclose(centroid, [10.0, 0.0], atol=1e-12)
        assert np.allclose(out[:, 2], 0.3)

    def test_half_turn_reflects_centroid(self):
        scene = grid_scene(extent=15.0)
        cfg = SynthesisConfig()
        rng = ScriptedRng(uniforms=[10.0, math.pi])
        out = place_object(self.centered_square(), scene, cfg, rng)
        centroid = out[:, :2].mean(axis=0)
        assert np.allclose(centroid, [-10.0, 0.0], atol=1e-9)

    def test_placement_radius_bound(self):
        scene = grid_scene(extent=15.0)
        cfg = SynthesisConfig()
        radii = np.linalg.norm(scene.points, axis=1)
        r_min, r_max = radii.min(), radii.max()
        for k in range(200):
            rng = RngStream(77, k).generator()
            out = place_object(self.centered_square(), scene, cfg, rng)
            rho = np.linalg.norm(out[:, :2].mean(axis=0))
            assert r_min - 1e-9 <= rho <= 0.8 * r_max + 1e-9

    def test_empty_placement_range_named(self):
        scene = grid_scene(extent=15.0)  # r_min 1, r_max 15 * sqrt(2)
        cfg = SynthesisConfig(placement_max_frac=0.01)
        with pytest.raises(ValueError, match=r"placement_max_frac 0\.01 leaves no placement "
                           r"range: r_min 1\.0 >= placement_max_frac \* r_max 0\.212"):
            place_object(self.centered_square(), scene, cfg, RngStream(0, 0))


class TestCheckOverlap:
    def scene_single(self, x, y):
        return Scene(points=np.array([[x, y, 0.0]]), labels=np.array([1]))

    def test_centroid_on_scene_point(self):
        pts = np.full((4, 3), [10.0, 0.0, 1.0])
        assert check_overlap(pts, self.scene_single(10.0, 0.0), 1.0) is True

    def test_manhattan_beyond_delta(self):
        pts = np.full((4, 3), [10.0, 1.5, 1.0])
        assert check_overlap(pts, self.scene_single(10.0, 0.0), 1.0) is False

    def test_manhattan_within_delta(self):
        pts = np.full((4, 3), [10.4, 0.5, 1.0])  # |0.4| + |0.5| = 0.9
        assert check_overlap(pts, self.scene_single(10.0, 0.0), 1.0) is True

    def test_exactly_delta_overlaps(self):
        pts = np.full((4, 3), [10.0, 1.0, 1.0])  # distance exactly 1.0
        assert check_overlap(pts, self.scene_single(10.0, 0.0), 1.0) is True


class TestResize:
    def test_identity(self):
        pts = RngStream(0, 0).generator().normal(size=(20, 3))
        assert np.allclose(resize(pts, 1.0), pts)

    def test_distances_double(self):
        pts = RngStream(1, 0).generator().normal(size=(20, 3))
        out = resize(pts, 2.0)
        c = pts.mean(axis=0)
        assert np.allclose(np.linalg.norm(out - c, axis=1),
                           2.0 * np.linalg.norm(pts - c, axis=1))
        assert np.allclose(out.mean(axis=0), c, atol=1e-12)

    def test_bbox_volume_scaling(self):
        pts = RngStream(2, 0).generator().uniform(-1, 1, size=(200, 3))
        k = 3.0
        v0 = np.prod(pts.max(0) - pts.min(0))
        v1 = np.prod(resize(pts, k).max(0) - resize(pts, k).min(0))
        assert abs(v1 - k ** 3 * v0) <= 1e-6 * k ** 3 * v0

    def test_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            resize(np.zeros((3, 3)), 0.5)


class TestSnapToGround:
    def test_already_grounded_identity(self):
        scene = grid_scene(z=0.0)
        pts = np.array([[5.0, 5.0, 0.0], [5.0, 5.0, 1.0], [5.2, 5.0, 0.5]])
        out = snap_to_ground(pts, scene)
        assert np.allclose(out, pts)

    def test_shift_formula(self):
        scene = Scene(points=np.array([[5.0, 5.0, 0.2], [30.0, 30.0, 0.0]]),
                      labels=np.array([1, 1]))
        pts = np.array([[5.0, 5.0, 3.0], [5.0, 5.1, 4.0]])
        out = snap_to_ground(pts, scene)
        assert np.allclose(out[:, 2], [0.2, 1.2])

    def test_postcondition(self):
        scene = grid_scene(z=-0.3)
        pts = RngStream(3, 0).generator().uniform(2, 4, size=(30, 3))
        out = snap_to_ground(pts, scene)
        assert abs(out[:, 2].min() - (-0.3)) < 1e-9

    def test_no_support_fails(self):
        scene = Scene(points=np.array([[50.0, 50.0, 0.0]]), labels=np.array([1]))
        pts = np.array([[0.0, 0.0, 1.0], [0.1, 0.0, 2.0]])
        with pytest.raises(PlacementFailed):
            snap_to_ground(pts, scene, search_radius=5.0)


class TestWindowMatching:
    def test_strict_boundaries(self):
        scene_sph = np.array([[0.0, 0.0, 10.0]])
        exactly_lon = np.array([[0.02, 0.0, 5.0]])
        exactly_lat = np.array([[0.0, 0.2, 5.0]])
        just_inside = np.array([[0.0199, 0.19, 5.0]])
        assert np.isinf(window_min_radius(scene_sph, exactly_lon, 0.02, 0.2))[0]
        assert np.isinf(window_min_radius(scene_sph, exactly_lat, 0.02, 0.2))[0]
        assert window_min_radius(scene_sph, just_inside, 0.02, 0.2)[0] == 5.0

    def test_smallest_radius_wins(self):
        scene_sph = np.array([[0.0, 0.0, 10.0]])
        obj_sph = np.array([[0.01, 0.1, 5.0], [-0.01, -0.1, 4.0]])
        assert window_min_radius(scene_sph, obj_sph, 0.02, 0.2)[0] == 4.0

    def test_matches_brute_force(self):
        gen = RngStream(5, 0).generator()
        scene_sph = np.stack([
            gen.uniform(-3.0, 3.0, 300),
            gen.uniform(-0.4, 0.1, 300),
            gen.uniform(2.0, 30.0, 300),
        ], axis=1)
        obj_sph = np.stack([
            gen.uniform(-3.0, 3.0, 80),
            gen.uniform(-0.4, 0.1, 80),
            gen.uniform(1.0, 20.0, 80),
        ], axis=1)
        got = window_min_radius(scene_sph, obj_sph, 0.05, 0.1)
        assert np.array_equal(got, window_min_radius_brute_force(scene_sph, obj_sph, 0.05, 0.1))

    def test_rounded_bound_decides(self):
        # the computed difference is exactly the window, but the computed
        # bound lon_j + window lies one ulp above the scene point's lon
        scene_sph = np.array([[0.004536172925714048, 0.0, 10.0]])
        obj_sph = np.array([[-0.015463827074285952, 0.0, 5.0]])
        assert scene_sph[0, 0] - obj_sph[0, 0] == 0.02
        got = window_min_radius(scene_sph, obj_sph, 0.02, 0.2)
        assert np.array_equal(got, [5.0])
        assert np.array_equal(got, window_min_radius_brute_force(scene_sph, obj_sph, 0.02, 0.2))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(0, 600),
        n=st.integers(1, 40),
        lat_spread=st.sampled_from([0.01, 0.1, 0.5]),
        windows=st.sampled_from([(0.02, 0.2), (0.05, 0.03)]),
    )
    @example(seed=1, m=0, n=5, lat_spread=0.1, windows=(0.02, 0.2))
    @example(seed=2, m=256, n=40, lat_spread=0.1, windows=(0.02, 0.2))
    @example(seed=3, m=257, n=40, lat_spread=0.5, windows=(0.05, 0.03))
    @example(seed=4, m=600, n=40, lat_spread=0.1, windows=(0.05, 0.03))
    def test_property_matches_brute_force(self, seed, m, n, lat_spread, windows):
        # 0 to 600 object points make 0 to 3 latitude bands. Rounding to a
        # 1e-3 grid makes tied object coordinates; most scene points sit
        # exactly at an object point's lon +- window_lon or lat +- window_lat.
        window_lon, window_lat = windows
        gen = RngStream(seed, 0).generator()
        obj_sph = np.stack([
            np.round(gen.uniform(-0.1, 0.1, m), 3),
            np.round(gen.uniform(-lat_spread, lat_spread, m), 3),
            gen.uniform(1.0, 20.0, m),
        ], axis=1)
        scene_sph = np.stack([
            gen.uniform(-0.15, 0.15, n),
            gen.uniform(-lat_spread - window_lat, lat_spread + window_lat, n),
            gen.uniform(1.0, 20.0, n),
        ], axis=1)
        if m:
            for axis, window in ((0, window_lon), (1, window_lat)):
                at = gen.random(n) < 0.7
                j = gen.integers(m, size=n)
                edge = obj_sph[j, axis] + gen.choice([-window, 0.0, window], size=n)
                scene_sph[:, axis] = np.where(at, edge, scene_sph[:, axis])
        got = window_min_radius(scene_sph, obj_sph, window_lon, window_lat)
        expect = window_min_radius_brute_force(scene_sph, obj_sph, window_lon, window_lat)
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("height", [0.4, 5.0])
    def test_scan_object_matches_brute_force(self, height):
        # 5.5 m from a 64-beam sensor, a 0.4 m tall object spans less lat
        # than window_lat and a 5 m one more
        cfg = ScanConfig(
            sensor_height=1.7,
            beam_elevations=tuple(np.deg2rad(np.linspace(-25.0, 3.0, 64))),
            azimuth_step=float(np.deg2rad(2.0)),
            max_range=40.0,
            random_obstacles=4,
        )
        scene_sph = to_spherical(generate_scan(cfg, RngStream(9, 0)).points)
        gen = RngStream(9, 1).generator()
        obj = gen.uniform(-0.5, 0.5, (300, 3)) * [1.0, 1.0, height] + [5.5, 0.0, height / 2]
        obj_sph = to_spherical(obj)
        assert (np.ptp(obj_sph[:, 1]) > 0.2) == (height > 1.0)
        got = window_min_radius(scene_sph, obj_sph, 0.02, 0.2)
        assert np.isfinite(got).sum() > 20
        assert np.array_equal(got, window_min_radius_brute_force(scene_sph, obj_sph, 0.02, 0.2))


class TestMergeSpherical:
    def test_hand_window_case(self, space3):
        scene = Scene(points=from_spherical(np.array([[0.0, 0.0, 10.0]])),
                      labels=np.array([1]))
        obj = from_spherical(np.array([[0.01, 0.1, 5.0]]))
        out, report = merge_spherical(scene, obj, space3, 0.02, 0.2)
        sph = to_spherical(out.points)
        assert sph[0, 2] == pytest.approx(5.0, abs=1e-12)
        assert out.labels[0] == space3.synthetic_outlier
        assert report.indices.tolist() == [0]
        assert report.old_radii[0] == pytest.approx(10.0)
        assert report.new_radii[0] == pytest.approx(5.0)

    def test_sampling_pattern_preserved(self, space3, small_scan):
        obj = ball_asset(radius=2.0, count=400).points + [10.0, 0.0, 1.0]
        out, report = merge_spherical(small_scan, obj, space3, 0.02, 0.2)
        assert out.num_points == small_scan.num_points
        before = to_spherical(small_scan.points)
        after = to_spherical(out.points)
        assert np.max(np.abs(after[:, :2] - before[:, :2])) <= 1e-9
        assert report.indices.size > 0

    def test_untouched_points_bitwise_identical(self, space3, small_scan):
        obj = ball_asset(radius=2.0, count=400).points + [10.0, 0.0, 1.0]
        out, report = merge_spherical(small_scan, obj, space3, 0.02, 0.2)
        untouched = np.setdiff1d(np.arange(small_scan.num_points), report.indices)
        assert np.array_equal(out.points[untouched], small_scan.points[untouched])
        assert np.array_equal(out.labels[untouched], small_scan.labels[untouched])

    def test_empty_match_returns_unchanged(self, space3, small_scan):
        obj = np.array([[500.0, 500.0, 50.0]] * 3)  # far outside every window
        out, report = merge_spherical(small_scan, obj, space3, 0.001, 0.001)
        assert report.indices.size == 0
        assert np.array_equal(out.points, small_scan.points)

    def test_replaced_radius_is_min_of_matches(self, space3):
        scene = Scene(points=from_spherical(np.array([[0.0, 0.0, 10.0]])),
                      labels=np.array([1]))
        obj = from_spherical(np.array([[0.005, 0.05, 5.0], [-0.005, -0.05, 4.0]]))
        out, _ = merge_spherical(scene, obj, space3, 0.02, 0.2)
        assert to_spherical(out.points)[0, 2] == pytest.approx(4.0, abs=1e-12)

    def test_occlusion_capped_variant(self, space3):
        scene = Scene(points=from_spherical(np.array([[0.0, 0.0, 3.0]])),
                      labels=np.array([1]))
        obj = from_spherical(np.array([[0.0, 0.0, 5.0]]))  # behind the scene point
        out, report = merge_spherical(scene, obj, space3, 0.02, 0.2,
                                      occlusion_capped=True)
        assert report.indices.size == 0
        assert np.array_equal(out.points, scene.points)
        # without the cap the literal rule pushes the point backwards
        out2, report2 = merge_spherical(scene, obj, space3, 0.02, 0.2)
        assert to_spherical(out2.points)[0, 2] == pytest.approx(5.0, abs=1e-12)
        assert report2.indices.size == 1

    def test_report_indices_unique(self):
        with pytest.raises(ValueError):
            MergeReport("x", np.array([1, 1]), np.zeros(2), np.zeros(2))


class TestSynthesizeScene:
    def test_zero_objects_identity(self, space3, small_scan):
        rng = ScriptedRng(binomials=[0])
        out, reports = synthesize_scene(small_scan, [ball_asset()], space3,
                                        SynthesisConfig(), rng)
        assert reports == []
        assert np.array_equal(out.points, small_scan.points)
        assert np.array_equal(out.labels, small_scan.labels)

    def test_all_objects_fail_overlap(self, space3):
        # a single faraway scene point: the object is always placed relative
        # to the scene radii, but a tiny overlap delta rejects everything
        scene = grid_scene(extent=10.0)
        cfg = SynthesisConfig(overlap_delta=1e-12)
        out, reports = synthesize_scene(scene, [ball_asset()], space3, cfg,
                                        RngStream(3, 0))
        assert reports == []
        assert np.array_equal(out.points, scene.points)

    def test_determinism(self, space3, small_scan):
        assets = [ball_asset(seed=i, source_id=f"b{i}") for i in range(5)]
        cfg = SynthesisConfig()
        a, ra = synthesize_scene(small_scan, assets, space3, cfg, RngStream(9, 1))
        b, rb = synthesize_scene(small_scan, assets, space3, cfg, RngStream(9, 1))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        assert len(ra) == len(rb)
        for x, y in zip(ra, rb):
            assert x.object_id == y.object_id
            assert np.array_equal(x.indices, y.indices)

    def test_point_count_conserved_and_labels_sound(self, space3, small_scan):
        assets = [ball_asset(seed=i) for i in range(3)]
        out, reports = synthesize_scene(small_scan, assets, space3,
                                        SynthesisConfig(), RngStream(21, 5))
        assert out.num_points == small_scan.num_points
        changed = np.flatnonzero(out.labels != small_scan.labels)
        assert np.all(out.labels[changed] == space3.synthetic_outlier)

    def test_empty_pool_rejected(self, space3, small_scan):
        with pytest.raises(ValueError):
            synthesize_scene(small_scan, [], space3, SynthesisConfig(), RngStream(0, 0))


class TestResizeExisting:
    def two_cluster_scene(self):
        gen = RngStream(13, 0).generator()
        ground = gen.uniform(-10, 10, size=(200, 3)) * [1, 1, 0]
        inst_a = gen.normal(size=(30, 3)) * 0.1 + [5.0, 5.0, 1.0]
        inst_b = gen.normal(size=(25, 3)) * 0.1 + [-6.0, -6.0, 1.0]
        pts = np.concatenate([ground, inst_a, inst_b])
        labels = np.concatenate([np.full(200, 1), np.full(30, 2), np.full(25, 2)])
        return Scene(points=pts, labels=labels)

    def test_unit_scale_changes_only_labels(self, space3):
        scene = self.two_cluster_scene()
        out, idx = resize_existing(scene, 2, space3, (1.0, 1.0), RngStream(1, 0))
        assert idx.size in (25, 30)  # exactly one instance
        assert np.allclose(out.points, scene.points)
        assert np.all(out.labels[idx] == space3.resized_outlier)

    def test_doubling_spacing(self, space3):
        scene = self.two_cluster_scene()
        out, idx = resize_existing(scene, 2, space3, (2.0, 2.0), RngStream(2, 0))
        before = scene.points[idx]
        after = out.points[idx]
        d_before, _ = cKDTree(before).query(before, k=2)
        d_after, _ = cKDTree(after).query(after, k=2)
        assert np.allclose(d_after[:, 1], 2.0 * d_before[:, 1], rtol=1e-9)
        # instance diameter doubles too
        assert (after.max(0) - after.min(0))[:2] == pytest.approx(
            2.0 * (before.max(0) - before.min(0))[:2], rel=1e-9)

    def test_single_point_instance(self, space3):
        # one point is one component and its own centroid: relabelled, not moved
        scene = grid_scene(extent=3.0)
        scene.labels[7] = 2
        out, idx = resize_existing(scene, 2, space3, (1.5, 3.0), RngStream(3, 0))
        assert idx.tolist() == [7]
        assert np.array_equal(out.points, scene.points)
        assert out.labels[7] == space3.resized_outlier
        assert np.array_equal(np.delete(out.labels, 7), np.delete(scene.labels, 7))

    @pytest.mark.parametrize("target, k_range, threshold", [
        (0, (1.5, 3.0), 0.5),
        (4, (1.5, 3.0), 0.5),  # the resized-outlier label, not an inlier class
        (2, (0.5, 3.0), 0.5),
        (2, (3.0, 2.0), 0.5),
        (2, (1.5, 3.0), 0.0),
        (2, (1.5, 3.0), -1.0),
        (2, (1.5, 3.0), math.inf),
        (2, (1.5, 3.0), math.nan),
    ])
    def test_bad_arguments_rejected(self, space3, target, k_range, threshold):
        with pytest.raises(ValueError):
            resize_existing(self.two_cluster_scene(), target, space3, k_range,
                            RngStream(0, 0), cluster_threshold=threshold)

    def test_missing_class_noops_without_warning(self, space3):
        scene = grid_scene()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out, idx = resize_existing(scene, 2, space3, (1.0, 2.0), RngStream(0, 0))
        assert not caught  # the CLI reports the missing class itself
        assert idx.size == 0
        assert np.array_equal(out.points, scene.points)
        assert np.array_equal(out.labels, scene.labels)


class CountingRng(ScriptedRng):
    """A ScriptedRng that records the bound of its last ``integers`` draw."""

    def integers(self, lo, hi=None, size=None):
        self.bound = lo
        return super().integers(lo, hi, size)


def picked_instances(points, threshold):
    """Every instance resize_existing can pick among ``points`` (all of
    class 2), in pick order: the indices it relabels when its draw is c."""
    scene = Scene(points=points, labels=np.full(len(points), 2))
    space = LabelSpace(3)
    counting = CountingRng(integers=[0])
    resize_existing(scene, 2, space, (1.0, 1.0), counting, cluster_threshold=threshold)
    return [resize_existing(scene, 2, space, (1.0, 1.0), ScriptedRng(integers=[c]),
                            cluster_threshold=threshold)[1]
            for c in range(counting.bound)]


def assert_brute_force_instances(points, threshold):
    count, labels = components_brute_force(points, threshold)
    picked = picked_instances(points, threshold)
    assert len(picked) == count
    for c, inst in enumerate(picked):
        assert inst.tolist() == np.flatnonzero(labels == c).tolist()
    return count


def lattice(shape, spacing, offset=0.0):
    axes = [offset + spacing * np.arange(n) for n in shape]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


class TestResizeInstances:
    """resize_existing's instances against the brute-force component oracle:
    pairs at distance <= the threshold join, ties and duplicates included,
    and an instance's number is its rank by lowest member index."""

    def test_exact_ties_join(self):
        assert assert_brute_force_instances(lattice((5, 4, 3), 0.5), 0.5) == 1

    @pytest.mark.parametrize("t", [0.1, 0.3])
    def test_lattice_at_rounded_threshold_spacing(self, t):
        # multiples of t round, so some neighbours land just inside t and
        # some just beyond it
        points = lattice((4, 3, 2), t, offset=1.7)
        order = RngStream(7, 0).generator().permutation(len(points))
        assert_brute_force_instances(points[order], t)

    def test_lattice_just_above_threshold_spacing(self):
        points = lattice((4, 3, 2), 0.5 * (1 + 1e-12))
        assert assert_brute_force_instances(points, 0.5) == len(points)

    def test_duplicates(self):
        gen = RngStream(8, 0).generator()
        sites = gen.uniform(-5, 5, size=(6, 3))
        points = sites[gen.integers(0, 6, size=40)]  # up to ~12 copies of a site
        assert assert_brute_force_instances(points, 0.5) == len(np.unique(points, axis=0))

    def test_single_point(self):
        assert assert_brute_force_instances(np.array([[1.0, 2.0, 3.0]]), 0.5) == 1

    def test_chain_longer_than_neighbour_lists(self):
        # 60 points 0.4 apart, shuffled: one instance only through its links
        direction = np.array([2.0, -1.0, 0.5]) / np.linalg.norm([2.0, -1.0, 0.5])
        points = 0.4 * np.arange(60)[:, None] * direction
        points = points[RngStream(9, 0).generator().permutation(60)]
        assert assert_brute_force_instances(points, 0.5) == 1

    def test_saturated_clusters_joined_across_their_lists(self):
        # every point lists only its own dense cluster, yet the first two
        # clusters have pairs within 0.5 of each other; the third has none
        gen = RngStream(10, 0).generator()
        centres = np.array([[0.0, 0.0, 0.0], [0.55, 0.0, 0.0], [2.0, 0.0, 0.0]])
        points = np.concatenate([c + gen.uniform(-0.04, 0.04, size=(40, 3)) for c in centres])
        points = points[gen.permutation(len(points))]
        assert assert_brute_force_instances(points, 0.5) == 2

    def test_clusters_joined_through_a_third(self):
        # A and C are within 0.5 of each other, yet each point of C lies
        # nearer to B, numbered between them; B and A are 0.85 apart
        gen = RngStream(11, 0).generator()
        centres = np.array([[0.0, 0.0, 0.0], [0.85, 0.0, 0.0], [0.45, 0.0, 0.0]])
        points = np.concatenate([c + gen.uniform(-0.01, 0.01, size=(30, 3)) for c in centres])
        assert assert_brute_force_instances(points, 0.5) == 1

    def test_one_ulp_beyond_threshold_stays_apart(self):
        # squared distances 0.25 (joins) and 0.25 + 2**-54, the next double
        points = np.array([[0.0, 0.0, 0.0], [0.5, 2.0**-27, 0.0], [0.0, 0.5, 0.0]])
        assert assert_brute_force_instances(points, 0.5) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.lists(st.tuples(*[st.integers(0, 5)] * 3), min_size=1, max_size=40),
        jitter=st.sampled_from([0.0, 1e-9, 0.07]),
        t=st.sampled_from([0.25, 0.3, 0.5]),
    )
    def test_property_matches_brute_force(self, cells, jitter, t):
        # a quarter-metre grid puts many pairs at exactly 0.25 or 0.5
        points = 0.25 * np.array(cells, dtype=np.float64)
        points += jitter * np.sin(np.arange(points.size)).reshape(points.shape)
        assert_brute_force_instances(points, t)


def resize_existing_reference(scene, target_class, space, k_range, gen, threshold=0.5):
    """resize_existing's draws and edits, on the all-pairs graph's components."""
    member_idx = np.flatnonzero(scene.labels == target_class)
    n_comp, component = components_pair_graph(scene.points[member_idx], threshold)
    inst = member_idx[component == int(gen.integers(n_comp))]
    lo, hi = k_range
    k = sample_uniform(gen, lo, hi) if hi > lo else float(lo)
    out = scene.copy()
    out.points[inst] = resize(scene.points[inst], k, min_scale=lo)
    out.labels[inst] = space.resized_outlier
    return out, inst


def assert_same_resize(scene, stream):
    space = LabelSpace(3)
    out, inst = resize_existing(scene, 2, space, (1.5, 3.0), stream.generator())
    ref, ref_inst = resize_existing_reference(scene, 2, space, (1.5, 3.0), stream.generator())
    assert inst.tolist() == ref_inst.tolist()
    assert out.points.tobytes() == ref.points.tobytes()
    assert np.array_equal(out.labels, ref.labels)


class TestResizeMatchesPairGraph:
    @pytest.mark.parametrize("run_seed", [1, 2, 3])
    def test_desk_scans(self, run_seed):
        for i, scan in enumerate(_benchmark.make_scan_corpus(10)):
            if np.any(scan.labels == 2):
                assert_same_resize(scan, RngStream(run_seed, (1 << 32) + i))

    def test_sweep_resolution_scan(self):
        cfg = ScanConfig(
            sensor_height=1.7,
            beam_elevations=tuple(np.deg2rad(np.linspace(-25.0, 3.0, 64))),
            azimuth_step=float(np.deg2rad(0.2)),
            max_range=40.0,
            random_obstacles=12,
        )
        scan = generate_scan(cfg, RngStream(4, 0))
        assert np.sum(scan.labels == 2) > 10_000  # sweep-sized box points
        assert_same_resize(scan, RngStream(4, 1))


class TestSynthesisConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthesisConfig(overlap_delta=0.0)
        with pytest.raises(ValueError):
            SynthesisConfig(scale_min=0.5)
        with pytest.raises(ValueError):
            SynthesisConfig(scale_min=2.0, scale_max=2.0)
        with pytest.raises(ValueError):
            SynthesisConfig(window_lon=0.0)
        with pytest.raises(ValueError, match="object_count_trials"):
            SynthesisConfig(object_count_trials=-1)
        for prob in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="object_count_prob"):
                SynthesisConfig(object_count_prob=prob)
        for name in ("object_count_trials", "asset_sample_count"):
            with pytest.raises(ValueError, match=rf"{name} must be <= 2\*\*63 - 1"):
                SynthesisConfig(**{name: 2**63})
        SynthesisConfig(object_count_trials=0, object_count_prob=1.0)  # bounds accepted
        SynthesisConfig(object_count_trials=2**63 - 1, asset_sample_count=2**63 - 1)
