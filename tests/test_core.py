import math

import numpy as np
import pytest

from oodlab.core import (
    LabelSpace,
    RngStream,
    Scene,
    from_spherical,
    sample_object_count,
    sample_uniform,
    to_spherical,
)


class TestToSpherical:
    def test_x_axis(self):
        assert np.allclose(to_spherical([1.0, 0.0, 0.0]), [0.0, 0.0, 1.0])

    def test_pole(self):
        lon, lat, r = to_spherical([0.0, 0.0, 2.0])
        assert lon == 0.0
        assert lat == pytest.approx(math.pi / 2)
        assert r == 2.0

    def test_hand_computed_diagonal(self):
        # r = sqrt(1+1+2) = 2, lat = asin(sqrt(2)/2) = pi/4, lon = atan2(1,1) = pi/4
        lon, lat, r = to_spherical([1.0, 1.0, math.sqrt(2.0)])
        assert lon == pytest.approx(math.pi / 4, abs=1e-15)
        assert lat == pytest.approx(math.pi / 4, abs=1e-15)
        assert r == pytest.approx(2.0, abs=1e-15)

    def test_origin_convention(self):
        assert np.all(to_spherical([0.0, 0.0, 0.0]) == 0.0)

    def test_lon_range_half_open(self):
        # atan2 would give +pi on the negative x axis; we fold it to -pi
        lon = to_spherical([-1.0, 0.0, 0.0])[0]
        assert lon == -math.pi
        pts = RngStream(5, 0).generator().normal(size=(500, 3))
        lons = to_spherical(pts)[..., 0]
        assert np.all((lons >= -math.pi) & (lons < math.pi))

    def test_norm_preserved(self):
        pts = RngStream(6, 0).generator().normal(size=(300, 3)) * 15
        r = to_spherical(pts)[..., 2]
        assert np.allclose(r, np.linalg.norm(pts, axis=1), rtol=1e-15, atol=0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            to_spherical([np.nan, 0.0, 0.0])
        with pytest.raises(ValueError):
            from_spherical([np.inf, 0.0, 1.0])


class TestFromSpherical:
    def test_axis_cases(self):
        assert np.allclose(from_spherical([0.0, 0.0, 5.0]), [5.0, 0.0, 0.0])
        assert np.allclose(from_spherical([math.pi / 2, 0.0, 1.0]), [0.0, 1.0, 0.0])

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            from_spherical([0.0, 0.0, -1.0])

    def test_round_trip_tight(self):
        pts = RngStream(7, 0).generator().normal(size=(1000, 3)) * 3
        back = from_spherical(to_spherical(pts))
        assert np.max(np.abs(back - pts)) < 1e-12

    def test_round_trip_invariant_scaled(self):
        gen = RngStream(8, 0).generator()
        pts = gen.normal(size=(1000, 3)) * np.exp(gen.uniform(-3, 6, size=(1000, 1)))
        back = from_spherical(to_spherical(pts))
        err = np.linalg.norm(back - pts, axis=1)
        bound = 1e-9 * np.maximum(1.0, np.linalg.norm(pts, axis=1))
        assert np.all(err <= bound)


class TestSampling:
    def test_object_count_range(self):
        gen = RngStream(1, 0).generator()
        draws = np.array([sample_object_count(gen) for _ in range(5000)])
        assert draws.min() >= 0 and draws.max() <= 20

    def test_object_count_zero_probability(self):
        # P(G=0) = 0.7^20; with 10^6 pinned draws the observed frequency
        # sits well inside a 5-sigma band around 7.98e-4
        gen = RngStream(2, 0).generator()
        draws = gen.binomial(20, 0.3, size=1_000_000)
        p0 = 0.7 ** 20
        freq = np.mean(draws == 0)
        sigma = math.sqrt(p0 * (1 - p0) / 1_000_000)
        assert abs(freq - p0) < 5 * sigma
        assert 5.98 <= draws.mean() <= 6.02

    def test_object_count_determinism(self):
        a = [sample_object_count(RngStream(9, 4)) for _ in range(1)]
        seq1 = RngStream(9, 4).generator().binomial(20, 0.3, size=50)
        seq2 = RngStream(9, 4).generator().binomial(20, 0.3, size=50)
        assert np.array_equal(seq1, seq2)
        assert a[0] == seq1[0]

    def test_uniform_degenerate_width(self):
        v = sample_uniform(RngStream(3, 0), 0.0, 1e-12)
        assert 0.0 <= v < 1e-12

    def test_uniform_mean(self):
        gen = RngStream(4, 0).generator()
        draws = gen.uniform(1.0, 7.0, size=1_000_000)
        assert 3.99 <= draws.mean() <= 4.01

    def test_uniform_containment(self):
        gen = RngStream(5, 0).generator()
        draws = gen.uniform(0.0, 360.0, size=100_000)
        assert np.all((draws >= 0.0) & (draws < 360.0))

    def test_uniform_invalid_range(self):
        with pytest.raises(ValueError):
            sample_uniform(RngStream(0, 0), 1.0, 1.0)
        with pytest.raises(ValueError):
            sample_uniform(RngStream(0, 0), 2.0, 1.0)


class TestRngStream:
    def test_bitwise_determinism(self):
        a = RngStream(42, 7).generator().uniform(size=100)
        b = RngStream(42, 7).generator().uniform(size=100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).generator().uniform(size=10)
        b = RngStream(42, 1).generator().uniform(size=10)
        assert not np.array_equal(a, b)


class TestLabelSpace:
    def test_reserved_labels(self):
        space = LabelSpace(3)
        assert space.resized_outlier == 4
        assert space.synthetic_outlier == 5
        assert space.max_label == 5

    def test_validate(self):
        space = LabelSpace(2)
        space.validate([1, 2, 3, 4])
        with pytest.raises(ValueError):
            space.validate([0])
        with pytest.raises(ValueError):
            space.validate([5])

    def test_is_outlier(self):
        space = LabelSpace(2)
        assert np.array_equal(space.is_outlier([1, 2, 3, 4]), [False, False, True, True])

    def test_needs_at_least_one_class(self):
        with pytest.raises(ValueError):
            LabelSpace(0)


class TestScene:
    def test_parallel_length_enforced(self):
        with pytest.raises(ValueError):
            Scene(points=np.zeros((3, 3)), labels=np.ones(2, dtype=int))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Scene(points=np.zeros((0, 3)), labels=np.zeros(0, dtype=int))

    def test_copy_is_deep(self):
        s = Scene(points=np.ones((2, 3)), labels=np.ones(2, dtype=int),
                  intensity=np.zeros(2))
        c = s.copy()
        c.points[0, 0] = 9.0
        c.labels[0] = 3
        assert s.points[0, 0] == 1.0 and s.labels[0] == 1


def _bundled_openblas():
    from pathlib import Path
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    return sorted(libs.glob("*openblas*"))


class TestPackage:
    @pytest.mark.skipif(not _bundled_openblas(), reason="numpy has no bundled OpenBLAS")
    def test_blas_runs_on_one_thread(self):
        import ctypes

        import oodlab  # (importing the package pins the threads)

        getters = [name.replace("_set_", "_get_") for name in oodlab._BLAS_THREAD_SETTERS]
        for lib in _bundled_openblas():
            handle = ctypes.CDLL(str(lib))
            get = next((getattr(handle, n) for n in getters if hasattr(handle, n)), None)
            if get is not None:
                break
        else:
            pytest.skip("the bundled OpenBLAS exports no thread-count getter")
        get.restype = ctypes.c_int
        assert get() == 1
