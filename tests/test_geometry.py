import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multiframe.errors import (
    DegenerateProjection,
    DegenerateTriangulation,
    InputError,
)
from multiframe.geometry import (
    UNIT_VECTOR,
    CameraPose,
    Ray,
    RigidMotion,
    Rotation,
    best_fit_motion,
    best_fit_motions,
    best_fit_rotation,
    cross,
    project,
    project_points,
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


def reference_orthographic(p, pose):
    """Orthographic image as per-point formulas: in-plane components of p - origin."""
    d = np.asarray(p, dtype=float) - pose.origin
    return np.array([float(d @ pose.basis_u), float(d @ pose.basis_v)])


def reference_perspective(p, pose, tol=1e-12):
    """Perspective image as per-point formulas: pierce the plane with the focal ray.

    Depth at or below ``tol`` (at or behind the focal point) raises.
    """
    f = pose.focal
    n = pose.normal
    plane_d = float((pose.origin - f) @ n)  # signed focal-to-plane distance
    if plane_d < 0:
        n = -n
        plane_d = -plane_d
    depth = float((np.asarray(p, dtype=float) - f) @ n)
    if depth <= tol:
        raise DegenerateProjection(f"point at depth {depth:.3g} cannot be projected")
    q = f + (plane_d / depth) * (np.asarray(p, dtype=float) - f)
    d = q - pose.origin
    return np.array([float(d @ pose.basis_u), float(d @ pose.basis_v)])


def reference_project(p, pose):
    if pose.is_orthographic:
        return reference_orthographic(p, pose)
    return reference_perspective(p, pose)


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

    def test_axis_off_unit_by_9e_10_rejected_as_axis(self):
        # Rodrigues' formula about doubles the axis' norm error in R^T R, so this
        # axis would build a matrix over the orthonormality bound (1e-9)
        with pytest.raises(InputError, match="axis must be a unit vector"):
            Rotation.from_axis_angle(vec3(0, 0, 1 + 9e-10), np.pi / 2)

    @given(
        direction=arrays(float, 3, elements=st.floats(-1.0, 1.0)),
        stretch=st.floats(-UNIT_VECTOR, UNIT_VECTOR),
        angle=st.floats(-100.0, 100.0),
    )
    def test_every_accepted_axis_gives_a_rotation(self, direction, stretch, angle):
        norm = np.linalg.norm(direction)
        assume(norm > 0.1)
        axis = direction * ((1.0 + stretch) / norm)
        assume(abs(np.linalg.norm(axis) - 1.0) <= UNIT_VECTOR)
        Rotation.from_axis_angle(axis, angle)

    def test_bad_matrix_rejected(self):
        with pytest.raises(InputError):
            Rotation(np.diag([1.0, 1.0, -1.0]))  # reflection

    def test_column_norm_drift_rejected(self):
        # determinant 1, but columns 4e-6 off unit length: far over
        # ROTATION_ORTHONORMAL (1e-9), within a relative 1e-5
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
        assert np.allclose(project(pose.origin, pose), vec2(0, 0))

    def test_normal_translation_has_no_effect(self):
        rng = np.random.default_rng(8)
        pose = random_pose(rng, perspective=False)
        p = rng.normal(size=3)
        shifted = p + 3.7 * pose.normal
        assert np.allclose(project(p, pose), project(shifted, pose), atol=1e-12)

    def test_matches_hand_expanded_dot_products(self):
        # independent arithmetic oracle: expand the dot products literally
        rng = np.random.default_rng(9)
        pose = random_pose(rng, perspective=False)
        p = rng.normal(size=3)
        d = p - pose.origin
        expected_u = d[0] * pose.basis_u[0] + d[1] * pose.basis_u[1] + d[2] * pose.basis_u[2]
        expected_v = d[0] * pose.basis_v[0] + d[1] * pose.basis_v[1] + d[2] * pose.basis_v[2]
        assert np.allclose(project(p, pose), [expected_u, expected_v])


class TestPerspectiveProjection:
    def test_axis_point_maps_to_zero(self):
        pose = CameraPose.canonical_perspective()
        assert np.allclose(project(vec3(0, 0, 5), pose), vec2(0, 0))

    def test_depth_two_halves_offsets(self):
        pose = CameraPose.canonical_perspective()
        out = project(vec3(0.6, -0.4, 2.0), pose)
        assert np.allclose(out, vec2(0.3, -0.2))

    def test_reprojected_ray_passes_through_point(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            pose = random_pose(rng)
            p = pose.focal + rng.uniform(1.0, 4.0) * pose.normal + rng.normal(
                size=3, scale=0.5
            )
            img = project(p, pose)
            ray = ray_through(img, pose)
            # distance from p to the ray should vanish
            w = p - ray.origin
            dist = np.linalg.norm(w - (w @ ray.direction) * ray.direction)
            assert dist < 1e-9

    def test_nonpositive_depth_rejected(self):
        pose = CameraPose.canonical_perspective()
        with pytest.raises(DegenerateProjection):
            project(vec3(0.1, 0.1, -1.0), pose)
        with pytest.raises(DegenerateProjection):
            project(vec3(0.1, 0.1, 0.0), pose)


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
                back = project(ray.point_at(t * 1.2 + 0.2), pose)
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
                assert np.allclose(x[:2] / x[2], reference_project(p, pose), atol=1e-10)


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

    @pytest.mark.parametrize("scale", [10.0**k for k in range(-7, 4)])
    def test_cutoff_is_relative_to_the_spread(self, scale):
        tri = scale * np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        motion, resid = best_fit_motion(tri, tri)
        assert np.allclose(motion.rotation.matrix, np.eye(3), atol=1e-12)
        assert np.abs(motion.translation).max() <= 1e-12 * scale
        assert resid <= 1e-12 * scale
        # a tilted line, so rounding leaves s[1] just above zero
        line = scale * np.outer([0.0, 1.0, 2.5], [0.3, -0.5, 0.8])
        with pytest.raises(InputError, match="collinear"):
            best_fit_motion(line, line)
        spot = np.full((3, 3), scale)
        with pytest.raises(InputError, match="collinear"):
            best_fit_motion(spot, spot)

    def test_two_dimensional_points_rejected(self):
        src = np.array([[0.0, 0], [1, 0], [0, 1]])
        with pytest.raises(InputError):
            best_fit_rotation(src, src)
        with pytest.raises(InputError):
            best_fit_motion(src, src)


def reference_fit(src, dst):
    """One row's centered-SVD alignment, as the batched fit must compute it.

    Returns (rotation matrix, translation, RMS residual, whether s[1] + d s[2]
    is large enough to fix the rotation to 1e-12), or None when the point
    sets are collinear.
    """
    s_mean, d_mean = src.mean(axis=0), dst.mean(axis=0)
    sc, dc = src - s_mean, dst - d_mean
    u, s, vt = np.linalg.svd(sc.T @ dc)
    if s[1] <= 1e-12 * s[0]:
        return None
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    resid = np.linalg.norm(sc @ rot.T - dc) / np.sqrt(len(src))
    return rot, d_mean - rot @ s_mean, resid, s[1] + d * s[2] > 1e-2 * s[0]


unit_box = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def rotations(draw):
    """Rotation matrix of a normalized quaternion drawn from the unit box."""
    q = draw(arrays(np.float64, 4, elements=unit_box))
    assume(np.linalg.norm(q) > 0.1)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@st.composite
def fit_rows(draw, src):
    """One target set: src moved rigidly, maybe mirrored, plus bounded noise."""
    rot = draw(rotations())
    mirror = np.array([1.0, 1.0, -1.0 if draw(st.booleans()) else 1.0])
    t = draw(arrays(np.float64, 3, elements=unit_box))
    noise = draw(arrays(np.float64, src.shape, elements=unit_box)) * 0.1
    return (src * mirror) @ rot.T + t + noise


class TestBestFitMotions:
    @given(data=st.data(), n=st.integers(3, 6), k=st.integers(1, 4))
    def test_rows_equal_per_row_reference(self, data, n, k):
        src = data.draw(arrays(np.float64, (n, 3), elements=unit_box))
        sv = np.linalg.svd(src - src.mean(axis=0), compute_uv=False)
        assume(sv[1] > 0.1 * sv[0])
        dst = np.array([data.draw(fit_rows(src)) for _ in range(k)])
        refs = [reference_fit(src, row) for row in dst]
        assume(all(ref is not None and ref[3] for ref in refs))
        fits = best_fit_motions(src, dst)
        assert len(fits) == k
        for (motion, resid), (rot, t, ref_resid, _) in zip(fits, refs):
            assert np.abs(motion.rotation.matrix - rot).max() < 1e-12
            assert np.abs(motion.translation - t).max() < 1e-12
            assert abs(resid - ref_resid) < 1e-12

        row = data.draw(st.integers(0, k - 1))
        # a step near rounding size would leave the rounded points off their line,
        # which both fits then accept
        step = data.draw(arrays(np.float64, 3, elements=unit_box))
        assume(np.linalg.norm(step) > 0.1)
        dst[row] = dst[row, 0] + np.arange(n)[:, None] * step
        assert reference_fit(src, dst[row]) is None
        with pytest.raises(InputError):
            best_fit_motions(src, dst)


@st.composite
def projection_cases(draw):
    """A pose at some scale and points on both sides of its focal point.

    Perspective points sit at ``c * scale`` along the normal from the focal
    point, with ``c`` at least 0.05 away from zero or exactly zero (in the
    focal plane), so both implementations agree on which points raise.
    """
    scale = 10.0 ** draw(st.integers(-3, 3))
    r = draw(rotations())
    origin = scale * draw(arrays(np.float64, 3, elements=unit_box))
    n = draw(st.integers(1, 6))
    lateral = scale * draw(arrays(np.float64, (n, 2), elements=unit_box))
    if draw(st.booleans()):
        pose = CameraPose(origin, r[:, 0], r[:, 1], None)
        along = scale * draw(arrays(np.float64, n, elements=unit_box))
        return pose, origin + lateral @ r[:, :2].T + along[:, None] * r[:, 2], scale
    # the focal point lies on either side of the plane
    focal_d = draw(st.floats(0.2, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
    focal = origin - focal_d * scale * r[:, 2]
    pose = CameraPose(origin, r[:, 0], r[:, 1], focal)
    side = np.sign(focal_d) * r[:, 2]  # unit normal pointing away from the focal point
    c = draw(
        arrays(
            np.float64,
            n,
            elements=st.one_of(st.floats(0.05, 3.0), st.floats(-3.0, -0.05), st.just(0.0)),
        )
    )
    return pose, focal + lateral @ r[:, :2].T + (c * scale)[:, None] * side, scale


class TestProjectPoints:
    @given(case=projection_cases())
    def test_batch_matches_per_point_reference(self, case):
        pose, points, scale = case
        refs = []
        for p in points:
            try:
                refs.append(reference_project(p, pose))
            except DegenerateProjection:
                refs.append(None)
        for p, ref in zip(points, refs):
            if ref is None:
                with pytest.raises(DegenerateProjection):
                    project(p, pose)
            else:
                assert np.abs(project(p, pose) - ref).max() <= 1e-12 * scale
        bad = [k for k, ref in enumerate(refs) if ref is None]
        if bad:
            with pytest.raises(DegenerateProjection) as exc:
                project_points(points, pose)
            assert exc.value.index == bad[0]
            return
        images, depths = project_points(points, pose)
        assert images.shape == (len(points), 2) and depths.shape == (len(points),)
        assert np.abs(images - np.array(refs)).max() <= 1e-12 * scale
        if pose.is_orthographic:
            assert np.all(depths == 1.0)
        else:
            expected = [float((p - pose.focal) @ pose.normal) for p in points]
            assert np.all(depths > 0)
            assert np.allclose(depths, np.abs(expected), rtol=1e-12, atol=0)


class TestPoseValidation:
    def test_focal_in_plane_rejected(self):
        with pytest.raises(InputError):
            CameraPose(vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0), vec3(0.5, 0.5, 0))

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(InputError):
            CameraPose(vec3(0, 0, 0), vec3(1, 0, 0), vec3(1, 1, 0))
