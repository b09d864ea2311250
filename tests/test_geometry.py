import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multiframe.errors import (
    DegenerateProjection,
    DegenerateTriangulation,
    InputError,
)
from multiframe.geometry import (
    CameraPose,
    Ray,
    RigidMotion,
    Rotation,
    best_fit_motion,
    best_fit_rotation,
    cross,
    project,
    project_orthographic,
    project_perspective,
    projection_matrix,
    ray_through,
    rays_through,
    triangulate_midpoint,
    triangulate_midpoints,
    vec2,
    vec3,
)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_rotation(rng):
    return Rotation.from_axis_angle(random_unit(rng), rng.uniform(0.1, 3.0))


def random_pose(rng, perspective=True):
    r = random_rotation(rng).matrix
    origin = rng.normal(size=3)
    if perspective:
        focal = origin - r[:, 2] * rng.uniform(0.5, 2.0)
    else:
        focal = None
    return CameraPose(origin, r[:, 0], r[:, 1], focal)


class TestRotation:
    def test_zero_angle_is_identity(self):
        r = Rotation.from_axis_angle(vec3(0, 0, 1), 0.0)
        assert np.allclose(r.matrix, np.eye(3))

    def test_quarter_turn_about_z(self):
        r = Rotation.from_axis_angle(vec3(0, 0, 1), np.pi / 2)
        assert np.allclose(r.apply(vec3(1, 0, 0)), vec3(0, 1, 0), atol=1e-12)

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            axis = random_unit(rng)
            angle = rng.uniform(-3, 3)
            r = Rotation.from_axis_angle(axis, angle)
            assert np.allclose(r.compose(r.inverse()).matrix, np.eye(3), atol=1e-12)

    def test_axis_is_fixed(self):
        rng = np.random.default_rng(4)
        axis = random_unit(rng)
        r = Rotation.from_axis_angle(axis, 1.234)
        assert np.allclose(r.apply(axis), axis, atol=1e-12)

    def test_orthonormal_and_proper(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            r = random_rotation(rng)
            assert np.allclose(r.matrix.T @ r.matrix, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(r.matrix) - 1.0) < 1e-9

    def test_non_unit_axis_rejected(self):
        with pytest.raises(InputError):
            Rotation.from_axis_angle(vec3(0, 0, 2), 0.5)

    def test_bad_matrix_rejected(self):
        with pytest.raises(InputError):
            Rotation(np.diag([1.0, 1.0, -1.0]))  # reflection

    def test_column_norm_drift_rejected(self):
        # determinant 1, but columns 4e-6 off unit length: far over
        # rotation_orthonormal (1e-9), within a relative 1e-5
        with pytest.raises(InputError, match="orthonormal"):
            Rotation(np.diag([1 + 4e-6, 1 / (1 + 4e-6), 1.0]))

    def test_tiny_perturbation_accepted(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = random_rotation(rng).matrix + 1e-10 * rng.uniform(-1, 1, size=(3, 3))
            Rotation(m)


# magnitudes whose products and their differences stay finite
coords = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False)
vec_shapes = st.one_of(st.just((3,)), st.integers(0, 8).map(lambda n: (n, 3)))


class TestCross:
    @given(data=st.data(), shape=vec_shapes)
    def test_equals_numpy_cross(self, data, shape):
        a = data.draw(arrays(np.float64, shape, elements=coords))
        b = data.draw(arrays(np.float64, shape, elements=coords))
        got, want = cross(a, b), np.cross(a, b)
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # signed zeros too

    def test_broadcast_view_rows(self):
        d = np.broadcast_to(vec3(0.0, 0.6, 0.8), (4, 3))
        e = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(cross(d, e), np.cross(d, e))


class TestRigidMotion:
    def test_identity_fixes_points(self):
        p = vec3(1, 2, 3)
        assert np.allclose(RigidMotion.identity().apply(p), p)

    def test_translation_preserves_distances(self):
        m = RigidMotion(Rotation.identity(), vec3(5, -1, 2))
        p, q = vec3(0, 0, 0), vec3(1, 1, 1)
        assert np.isclose(
            np.linalg.norm(m.apply(p) - m.apply(q)), np.linalg.norm(p - q)
        )

    def test_random_motion_is_isometry(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = RigidMotion(random_rotation(rng), rng.normal(size=3))
            p, q = rng.normal(size=3), rng.normal(size=3)
            assert abs(
                np.linalg.norm(m.apply(p) - m.apply(q)) - np.linalg.norm(p - q)
            ) < 1e-12

    def test_compose_matches_sequential_application(self):
        rng = np.random.default_rng(7)
        a = RigidMotion(random_rotation(rng), rng.normal(size=3))
        b = RigidMotion(random_rotation(rng), rng.normal(size=3))
        p = rng.normal(size=3)
        assert np.allclose(a.compose(b).apply(p), a.apply(b.apply(p)), atol=1e-12)


class TestOrthographicProjection:
    def test_plane_origin_maps_to_zero(self):
        pose = CameraPose.canonical_orthographic()
        assert np.allclose(project_orthographic(pose.origin, pose), vec2(0, 0))

    def test_normal_translation_has_no_effect(self):
        rng = np.random.default_rng(8)
        pose = random_pose(rng, perspective=False)
        p = rng.normal(size=3)
        shifted = p + 3.7 * pose.normal
        assert np.allclose(
            project_orthographic(p, pose), project_orthographic(shifted, pose),
            atol=1e-12,
        )

    def test_matches_hand_expanded_dot_products(self):
        # independent arithmetic oracle: expand the dot products literally
        rng = np.random.default_rng(9)
        pose = random_pose(rng, perspective=False)
        p = rng.normal(size=3)
        d = p - pose.origin
        expected_u = d[0] * pose.basis_u[0] + d[1] * pose.basis_u[1] + d[2] * pose.basis_u[2]
        expected_v = d[0] * pose.basis_v[0] + d[1] * pose.basis_v[1] + d[2] * pose.basis_v[2]
        assert np.allclose(project_orthographic(p, pose), [expected_u, expected_v])

    def test_perspective_pose_rejected(self):
        pose = CameraPose.canonical_perspective()
        with pytest.raises(InputError):
            project_orthographic(vec3(0, 0, 2), pose)


class TestPerspectiveProjection:
    def test_axis_point_maps_to_zero(self):
        pose = CameraPose.canonical_perspective()
        assert np.allclose(project_perspective(vec3(0, 0, 5), pose), vec2(0, 0))

    def test_depth_two_halves_offsets(self):
        pose = CameraPose.canonical_perspective()
        out = project_perspective(vec3(0.6, -0.4, 2.0), pose)
        assert np.allclose(out, vec2(0.3, -0.2))

    def test_reprojected_ray_passes_through_point(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            pose = random_pose(rng)
            p = pose.focal + rng.uniform(1.0, 4.0) * pose.normal + rng.normal(
                size=3, scale=0.5
            )
            img = project_perspective(p, pose)
            ray = ray_through(img, pose)
            # distance from p to the ray should vanish
            w = p - ray.origin
            dist = np.linalg.norm(w - (w @ ray.direction) * ray.direction)
            assert dist < 1e-9

    def test_nonpositive_depth_rejected(self):
        pose = CameraPose.canonical_perspective()
        with pytest.raises(DegenerateProjection):
            project_perspective(vec3(0.1, 0.1, -1.0), pose)
        with pytest.raises(DegenerateProjection):
            project_perspective(vec3(0.1, 0.1, 0.0), pose)

    def test_orthographic_pose_rejected(self):
        with pytest.raises(InputError):
            project_perspective(vec3(0, 0, 2), CameraPose.canonical_orthographic())


class TestRayThrough:
    def test_center_ray_through_plane_origin(self):
        pose = CameraPose.canonical_perspective()
        ray = ray_through(vec2(0, 0), pose)
        assert np.allclose(ray.origin, pose.focal)
        assert np.allclose(ray.direction, vec3(0, 0, 1))

    def test_orthographic_rays_share_plane_normal(self):
        rng = np.random.default_rng(11)
        pose = random_pose(rng, perspective=False)
        for _ in range(10):
            ray = ray_through(rng.normal(size=2), pose)
            assert np.allclose(ray.direction, pose.normal, atol=1e-12)

    def test_projection_roundtrip(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            pose = random_pose(rng)
            img = rng.normal(size=2)
            ray = ray_through(img, pose)
            for t in (0.5, 1.0, 3.0):
                back = project_perspective(ray.point_at(t * 1.2 + 0.2), pose)
                assert np.allclose(back, img, atol=1e-10)


class TestProjectionMatrix:
    @pytest.mark.parametrize("kind", ["behind", "ahead", "orthographic"])
    def test_homogeneous_image_matches_project(self, kind):
        rng = np.random.default_rng(14)
        for _ in range(20):
            pose = random_pose(rng, perspective=kind != "orthographic")
            if kind == "ahead":
                # focal point on the other side of the plane: normal flips
                pose = CameraPose(
                    pose.origin, pose.basis_u, pose.basis_v, 2 * pose.origin - pose.focal
                )
            proj = projection_matrix(pose)
            origins, dirs = rays_through(rng.normal(size=(5, 2)), pose)
            for p in origins + rng.uniform(0.5, 3.0, size=(5, 1)) * dirs:
                x = proj @ np.append(p, 1.0)
                assert x[2] > 0
                assert np.allclose(x[:2] / x[2], project(p, pose), atol=1e-10)


class TestTriangulateMidpoint:
    def test_intersecting_rays_recover_common_point(self):
        p = vec3(1, 2, 3)
        r1 = Ray(vec3(0, 0, 0), p / np.linalg.norm(p))
        d2 = p - vec3(5, 0, 0)
        r2 = Ray(vec3(5, 0, 0), d2 / np.linalg.norm(d2))
        point, gap = triangulate_midpoint(r1, r2)
        assert np.allclose(point, p, atol=1e-12)
        assert gap < 1e-12

    def test_skew_rays_report_offset_gap(self):
        # rays along x and y, offset by d along z (their common perpendicular)
        d = 0.25
        r1 = Ray(vec3(0, 0, 0), vec3(1, 0, 0))
        r2 = Ray(vec3(0, 0, d), vec3(0, 1, 0))
        point, gap = triangulate_midpoint(r1, r2)
        assert np.isclose(gap, d)
        assert np.allclose(point, vec3(0, 0, d / 2))

    def test_perturbed_intersection_gap_small(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = rng.normal(size=3)
            o1 = rng.normal(size=3)
            o2 = rng.normal(size=3)
            d1 = (p - o1) / np.linalg.norm(p - o1)
            d2 = (p - o2) / np.linalg.norm(p - o2)
            if np.linalg.norm(np.cross(d1, d2)) < 0.1:
                continue
            d2p = d2 + rng.normal(size=3) * 1e-8
            d2p /= np.linalg.norm(d2p)
            _, gap = triangulate_midpoint(Ray(o1, d1), Ray(o2, d2p))
            assert gap <= 1e-7 * max(1.0, np.linalg.norm(p - o2))

    def test_batched_rows_match_one_row_calls(self):
        rng = np.random.default_rng(15)
        o1, o2 = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        d1, d2 = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        d2[3] = -d1[3]  # parallel pair
        d1 /= np.linalg.norm(d1, axis=1, keepdims=True)
        d2 /= np.linalg.norm(d2, axis=1, keepdims=True)
        mid, gap, parallel = triangulate_midpoints(o1, d1, o2, d2)
        assert parallel.tolist() == [False, False, False, True, False, False]
        assert np.all(np.isnan(mid[3])) and np.isnan(gap[3])
        for k in (0, 1, 2, 4, 5):
            point, g = triangulate_midpoint(Ray(o1[k], d1[k]), Ray(o2[k], d2[k]))
            assert np.allclose(mid[k], point, atol=1e-12) and np.isclose(gap[k], g)

    def test_parallel_rays_rejected(self):
        r1 = Ray(vec3(0, 0, 0), vec3(1, 0, 0))
        r2 = Ray(vec3(0, 1, 0), vec3(1, 0, 0))
        with pytest.raises(DegenerateTriangulation):
            triangulate_midpoint(r1, r2)


class TestBestFit:
    def test_identical_triples_give_identity(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        motion, resid = best_fit_motion(pts, pts)
        assert np.allclose(motion.rotation.matrix, np.eye(3), atol=1e-12)
        assert np.allclose(motion.translation, 0, atol=1e-12)
        assert resid < 1e-12

    def test_recovers_random_motion(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            m = RigidMotion(random_rotation(rng), rng.normal(size=3))
            src = rng.normal(size=(3, 3))
            if np.linalg.norm(np.cross(src[1] - src[0], src[2] - src[0])) < 0.1:
                continue
            dst = np.array([m.apply(p) for p in src])
            got, resid = best_fit_motion(src, dst)
            assert got.rotation.angle_to(m.rotation) < 1e-7
            assert resid < 1e-10

    def test_reflected_triple_yields_proper_rotation_with_residual(self):
        src = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        dst = src.copy()
        dst[:, 2] *= -1  # mirror, not a rotation
        rot, resid = best_fit_rotation(src, dst)
        assert abs(np.linalg.det(rot.matrix) - 1.0) < 1e-9
        assert resid > 0.1

    def test_collinear_triple_rejected(self):
        src = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
        with pytest.raises(InputError):
            best_fit_rotation(src, src)


class TestPoseValidation:
    def test_focal_in_plane_rejected(self):
        with pytest.raises(InputError):
            CameraPose(vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0), vec3(0.5, 0.5, 0))

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(InputError):
            CameraPose(vec3(0, 0, 0), vec3(1, 0, 0), vec3(1, 1, 0))
