import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multiframe.curves import (
    TANGENCY,
    TRANSFER_BAND,
    ImageCurve,
    TransferGap,
    _candidates,
    _match,
    _segments,
    curves_from_dataset,
    epipolar_line,
    epipolar_lines,
    lift_curve,
    transfer_point,
)
from multiframe.dof import Regime
from multiframe.errors import DegenerateGeometry, InputError
from multiframe.geometry import (
    CameraPose,
    project_points,
    rays_through,
    triangulate_midpoints,
    vec3,
)
from multiframe.scene import (
    MotionScript,
    random_arc_scene,
    random_motion_script,
    render,
    truth_poses,
)


def arc_dataset(seed, n_samples=100):
    scene = random_arc_scene(seed, n_samples=n_samples)
    script = random_motion_script(seed + 1, 2, Regime.PERSPECTIVE_CALIBRATED, scene)
    ds = render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
    return ds, scene


def line_distance(q, point, direction):
    off = np.asarray(q) - point
    return abs(off[0] * direction[1] - off[1] * direction[0])


def scene_diameter(scene):
    pts = np.array(list(scene.points.values()))
    return float(np.max(np.linalg.norm(pts[:, None] - pts[None, :], axis=2)))


class TestEpipolarLine:
    def test_line_passes_through_corresponding_image(self):
        ds, scene = arc_dataset(1, n_samples=30)
        p1, p2 = truth_poses(ds, 0), truth_poses(ds, 1)
        for img1, img2 in zip(ds.points[0], ds.points[1]):
            line = epipolar_line(img1, p1, p2)
            off = img2 - line.point
            dist = abs(off[0] * line.direction[1] - off[1] * line.direction[0])
            assert dist < 1e-10

    def test_orthographic_lines_parallel(self):
        pose1 = CameraPose.canonical_orthographic()
        pose2 = CameraPose(
            vec3(0, 0, 0),
            vec3(np.cos(0.4), 0, -np.sin(0.4)),
            vec3(0, 1, 0),
            None,
        )
        lines = [
            epipolar_line(np.array([u, v]), pose1, pose2)
            for u, v in [(-1.2, 0.3), (0.5, -0.7), (2.0, 1.0)]
        ]
        for a, b in zip(lines, lines[1:]):
            sin = abs(a.direction[0] * b.direction[1] - a.direction[1] * b.direction[0])
            assert sin < 1e-12

    def test_two_point_construction_oracle(self):
        # line coefficients vs joining the projections of two ray points
        ds, _ = arc_dataset(2, n_samples=10)
        p1, p2 = truth_poses(ds, 0), truth_poses(ds, 1)
        img1 = ds.points[0][0]
        line = epipolar_line(img1, p1, p2)
        origins, dirs = rays_through(img1, p1)
        images, _ = project_points(origins + np.array([[1.5], [2.5], [4.0]]) * dirs, p2)
        for q in images:
            off = q - line.point
            dist = abs(off[0] * line.direction[1] - off[1] * line.direction[0])
            assert dist < 1e-9

    def test_focal_on_ray_degenerate(self):
        pose1 = CameraPose.canonical_perspective()
        # second camera focal sits on the viewing ray of (0,0)
        pose2 = CameraPose(
            vec3(0, 0, 2.5), vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1.5)
        )
        with pytest.raises(DegenerateGeometry):
            epipolar_line(np.array([0, 0]), pose1, pose2)

    def test_ray_near_parallel_to_second_focal_plane(self):
        # the ray through (u, 0.1) meets the plane x = 3 of the second
        # focal point only at depth ~1/u: its vanishing point is far away
        pose1 = CameraPose.canonical_perspective()
        c, s = np.cos(0.7), np.sin(0.7)
        pose2 = CameraPose(vec3(2, 0, 3), vec3(0, s, -c), vec3(0, c, s), vec3(3, 0, 3))
        for u in (1e-2, 1e-4, 1e-6, 1e-8):
            line = epipolar_line(np.array([u, 0.1]), pose1, pose2)
            (image,), _ = project_points(3.0 * vec3(u, 0.1, 1.0), pose2)
            assert line_distance(image, line.point, line.direction) < 1e-10

    def test_ray_parallel_to_focal_plane_behind_camera_masked(self):
        # orthographic rays run along +z; the second camera looks along +x
        # from the origin, so every ray is parallel to its focal plane x = 0
        pose1 = CameraPose.canonical_orthographic()
        pose2 = CameraPose(vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1), vec3(0, 0, 0))
        samples = np.array([[0.5, 0.2], [-0.5, 0.2], [0.0, 0.2]])
        points, directions, degenerate = epipolar_lines(samples, pose1, pose2)
        assert degenerate.tolist() == [False, True, True]
        (image,), _ = project_points(vec3(0.5, 0.2, 3.0), pose2)
        assert line_distance(image, points[0], directions[0]) < 1e-12
        for d1 in samples[1:]:
            with pytest.raises(DegenerateGeometry):
                epipolar_line(d1, pose1, pose2)

    @pytest.mark.parametrize("regime", ["perspective", "orthographic"])
    def test_batched_lines_match_one_row_calls(self, regime):
        if regime == "perspective":
            ds, _ = arc_dataset(9, n_samples=40)
            pose1, pose2 = truth_poses(ds, 0), truth_poses(ds, 1)
            samples = ds.frames[0].curves[0]["samples"]
        else:
            pose1 = CameraPose.canonical_orthographic()
            pose2 = CameraPose(
                vec3(0, 0, 0), vec3(np.cos(0.4), 0, -np.sin(0.4)), vec3(0, 1, 0), None
            )
            samples = np.random.default_rng(9).uniform(-2.0, 2.0, size=(40, 2))
        points, directions, degenerate = epipolar_lines(samples, pose1, pose2)
        assert points.shape == directions.shape == (len(samples), 2)
        assert not degenerate.any()
        for k, d1 in enumerate(samples):
            line = epipolar_line(d1, pose1, pose2)
            sin = line_distance(directions[k], np.zeros(2), line.direction)
            assert sin < 1e-12
            assert line_distance(points[k], line.point, line.direction) < 1e-12

    def test_batched_mask_matches_one_row_raises(self):
        pose1 = CameraPose.canonical_perspective()
        pose2 = CameraPose(
            vec3(0, 0, 2.5), vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1.5)
        )
        samples = np.array(
            [[0.0, 0.0], [1e-12, 0.0], [0.0, -1e-11], [1e-3, 0.0], [0.3, -0.2], [0.0, 0.0]]
        )
        _, _, degenerate = epipolar_lines(samples, pose1, pose2)
        raised = []
        for d1 in samples:
            try:
                epipolar_line(d1, pose1, pose2)
                raised.append(False)
            except DegenerateGeometry:
                raised.append(True)
        assert degenerate.tolist() == raised
        assert degenerate.tolist() == [True, True, True, False, False, True]


class TestTransferPoint:
    def make_line(self, point, direction):
        from multiframe.curves import Line2D

        d = np.asarray(direction, dtype=float)
        return Line2D(np.asarray(point, dtype=float), d / np.linalg.norm(d))

    def test_crossing_selected(self):
        curve = ImageCurve(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]]))
        line = self.make_line([0.5, -1.0], [0.0, 1.0])
        hit = transfer_point(line, curve, 0.0, scale=2.0)
        assert np.allclose(hit.point, [0.5, 0.0])
        assert not hit.tangent

    def test_monotone_rule_skips_earlier_crossing(self):
        # S-shaped polyline crossed twice by a vertical line
        curve = ImageCurve(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        )
        line = self.make_line([0.5, -1.0], [0.0, 1.0])
        first = transfer_point(line, curve, 0.0, scale=2.0)
        assert np.allclose(first.point, [0.5, 0.0])
        later = transfer_point(line, curve, 1.5, scale=2.0)
        assert np.allclose(later.point, [0.5, 1.0])

    def test_no_crossing_is_a_gap(self):
        curve = ImageCurve(np.array([[0.0, 0.0], [1.0, 0.0]]))
        line = self.make_line([2.0, 1.0], [0.0, 1.0])
        with pytest.raises(TransferGap):
            transfer_point(line, curve, 0.0, scale=2.0)

    def test_endpoint_near_miss_within_band(self):
        curve = ImageCurve(np.array([[0.0, 0.0], [1.0, 0.0]]))
        line = self.make_line([1.0 + 5e-7, -1.0], [0.0, 1.0])
        hit = transfer_point(line, curve, 0.0, scale=1.0)
        assert np.allclose(hit.point, [1.0, 0.0], atol=1e-6)

    def test_vertex_duplicates_keep_earliest_in_arc_order(self):
        # the line runs 0.4 band left of the corner: segment 0 crosses at
        # arc 1 - 0.4 band, the vertical segment 1 rides the line (a tangent
        # hit at arc 1); the later, tangent duplicate is dropped
        band = 1e-6
        curve = ImageCurve(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
        line = self.make_line([1.0 - 0.4 * band, -1.0], [0.0, 1.0])
        hit = transfer_point(line, curve, 0.0, scale=1.0)
        assert hit.segment == 0 and not hit.tangent
        assert np.isclose(hit.arc_pos, 1.0 - 0.4 * band, rtol=0, atol=1e-15)
        # the dropped duplicate at arc 1 would be admissible here; the kept
        # one is not
        with pytest.raises(TransferGap):
            transfer_point(line, curve, 1.0 + 0.8 * band, scale=1.0)

    def test_crossing_within_band_before_previous_match_admitted(self):
        curve = ImageCurve(np.array([[0.0, 0.0], [2.0, 0.0]]))
        line = self.make_line([1.0, -1.0], [0.0, 1.0])
        hit = transfer_point(line, curve, 1.0 + 0.5e-6, scale=1.0)
        assert np.allclose(hit.point, [1.0, 0.0])
        with pytest.raises(TransferGap):
            transfer_point(line, curve, 1.0 + 2e-6, scale=1.0)

    def test_generator_sweep_matches_truth(self):
        # consecutive sweep: every transfer lands on the matching vertex
        ds, _ = arc_dataset(3, n_samples=60)
        p1, p2 = truth_poses(ds, 0), truth_poses(ds, 1)
        c1 = ds.frames[0].curves[0]["samples"]
        c2 = ImageCurve(ds.frames[1].curves[0]["samples"])
        prev = 0.0
        for k in range(len(c1)):
            line = epipolar_line(c1[k], p1, p2)
            hit = transfer_point(line, c2, prev, scale=5.0)
            assert np.linalg.norm(hit.point - c2.samples[k]) < 1e-8
            prev = hit.arc_pos


class TestLiftCurve:
    def test_arc_lifts_to_truth(self):
        ds, scene = arc_dataset(4, n_samples=100)
        diam = scene_diameter(scene)
        p1, p2 = truth_poses(ds, 0), truth_poses(ds, 1)
        pairs = curves_from_dataset(ds)
        c1, c2 = pairs["arc"]
        lifted = lift_curve(c1, c2, p1, p2)
        assert lifted.holes == []
        truth = scene.curves[0].samples
        assert len(lifted.source_indices) >= 98
        errs = [
            np.linalg.norm(p - truth[i])
            for p, i in zip(lifted.points, lifted.source_indices)
        ]
        assert max(errs) < 1e-6 * diam
        assert np.all(lifted.gaps < 1e-9)

    def test_reprojection_of_lifted_points(self):
        ds, scene = arc_dataset(5, n_samples=50)
        p1, p2 = truth_poses(ds, 0), truth_poses(ds, 1)
        pairs = curves_from_dataset(ds)
        c1, c2 = pairs["arc"]
        lifted = lift_curve(c1, c2, p1, p2)
        scale = max(np.max(np.abs(c1.samples)), np.max(np.abs(c2.samples)))
        images1, _ = project_points(lifted.points, p1)
        images2, _ = project_points(lifted.points, p2)
        off1 = images1 - c1.samples[lifted.source_indices]
        assert np.linalg.norm(off1, axis=1).max() < 1e-8 * scale
        assert np.linalg.norm(images2 - lifted.matches2, axis=1).max() < 1e-8 * scale

    def test_monotone_match_positions(self):
        ds, _ = arc_dataset(6, n_samples=80)
        p1, p2 = truth_poses(ds, 0), truth_poses(ds, 1)
        c1, c2 = curves_from_dataset(ds)["arc"]
        lifted = lift_curve(c1, c2, p1, p2)
        steps = np.linalg.norm(np.diff(c2.samples, axis=0), axis=1)
        arc = np.concatenate([[0.0], np.cumsum(steps)])
        pos = []
        for m in lifted.matches2:
            d = np.linalg.norm(c2.samples - m[None, :], axis=1)
            pos.append(arc[int(np.argmin(d))])
        assert all(b >= a - 1e-9 for a, b in zip(pos, pos[1:]))

    def test_reversed_second_curve_handled(self):
        ds, scene = arc_dataset(7, n_samples=40)
        diam = scene_diameter(scene)
        p1, p2 = truth_poses(ds, 0), truth_poses(ds, 1)
        c1, c2 = curves_from_dataset(ds)["arc"]
        flipped = c2.reversed()
        lifted = lift_curve(c1, flipped, p1, p2)
        truth = scene.curves[0].samples
        errs = [
            np.linalg.norm(p - truth[i])
            for p, i in zip(lifted.points, lifted.source_indices)
        ]
        assert max(errs) < 1e-6 * diam

    def test_planar_curve_constant_depth_under_orthography(self):
        # planar curve parallel to both image planes: all depths equal
        t = np.linspace(0, np.pi / 2, 40)
        samples = np.stack([np.cos(t), np.sin(t), np.full_like(t, 1.3)], axis=1)
        pose1 = CameraPose.canonical_orthographic()
        pose2 = CameraPose(
            vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0), None
        )  # same plane: depths along +z
        img1 = ImageCurve(project_points(samples, pose1)[0])
        img2 = ImageCurve(project_points(samples, pose2)[0])
        # views must differ for triangulation: tilt the second camera
        c, s = np.cos(0.5), np.sin(0.5)
        pose2 = CameraPose(vec3(0, 0, 0), vec3(c, 0, -s), vec3(0, 1, 0), None)
        img2 = ImageCurve(project_points(samples, pose2)[0])
        lifted = lift_curve(img1, img2, pose1, pose2)
        depths = lifted.points[:, 2]
        assert np.max(np.abs(depths - depths[0])) < 1e-9

    def test_epipolar_plane_segment_flagged(self):
        # a straight run along an epipolar plane rides the transfer line
        pose1 = CameraPose.canonical_perspective()
        pose2 = CameraPose(
            vec3(1.5, 0, 1.0),
            vec3(np.cos(-0.45), 0, -np.sin(-0.45)),
            vec3(0, 1, 0),
            vec3(1.5, 0, 0) - vec3(np.sin(0.45), 0, np.cos(0.45)) * 0 + vec3(0, 0, 0),
        )
        pose2 = CameraPose(vec3(1.5, 0, 1.0), vec3(1, 0, 0), vec3(0, 1, 0), vec3(1.5, 0, 0))
        # baseline is along +x: points with constant (y, z) share an epipolar plane
        run = np.stack(
            [np.linspace(-0.3, 0.3, 20), np.full(20, 0.2), np.full(20, 3.0)], axis=1
        )
        hook = np.stack(
            [np.full(10, 0.3), np.linspace(0.25, 0.7, 10), np.full(10, 3.0)], axis=1
        )
        samples = np.concatenate([run, hook])
        img1 = ImageCurve(project_points(samples, pose1)[0])
        img2 = ImageCurve(project_points(samples, pose2)[0])
        lifted = lift_curve(img1, img2, pose1, pose2)
        assert len(lifted.flagged) > 0
        for i in lifted.source_indices:
            assert i not in lifted.flagged

    def test_non_finite_samples_refused(self):
        # a NaN sample of either curve used to pass, and the lift turned every sample
        # from it on into a hole
        ds, _ = arc_dataset(4, n_samples=20)
        for curve in curves_from_dataset(ds)["arc"]:
            for bad in (np.nan, np.inf):
                samples = curve.samples.copy()
                samples[7, 1] = bad
                with pytest.raises(InputError, match="samples must be finite"):
                    ImageCurve(samples)

    def test_one_frame_dataset_rejected(self):
        scene = random_arc_scene(11, n_samples=20)
        script = random_motion_script(12, 1, Regime.PERSPECTIVE_CALIBRATED, scene)
        ds = render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
        with pytest.raises(InputError, match="frames 0 and 1 of 1"):
            curves_from_dataset(ds)

    def test_orthographic_limit_matches_orthographic_path(self):
        # far-focal perspective converges to the orthographic result
        ds, scene = arc_dataset(8, n_samples=60)
        diam = scene_diameter(scene)
        samples = scene.curves[0].samples
        pose_o1 = CameraPose.canonical_orthographic()
        c, s = np.cos(0.6), np.sin(0.6)
        pose_o2 = CameraPose(vec3(0, 0, 0), vec3(c, 0, -s), vec3(0, 1, 0), None)
        f = 1e6 * diam
        pose_p1 = CameraPose(
            pose_o1.origin, pose_o1.basis_u, pose_o1.basis_v, pose_o1.origin - f * pose_o1.normal
        )
        pose_p2 = CameraPose(
            pose_o2.origin, pose_o2.basis_u, pose_o2.basis_v, pose_o2.origin - f * pose_o2.normal
        )
        img_o1 = ImageCurve(project_points(samples, pose_o1)[0])
        img_o2 = ImageCurve(project_points(samples, pose_o2)[0])
        img_p1 = ImageCurve(project_points(samples, pose_p1)[0])
        img_p2 = ImageCurve(project_points(samples, pose_p2)[0])
        lift_o = lift_curve(img_o1, img_o2, pose_o1, pose_o2)
        lift_p = lift_curve(img_p1, img_p2, pose_p1, pose_p2)
        common = sorted(set(lift_o.source_indices) & set(lift_p.source_indices))
        o_by_idx = dict(zip(lift_o.source_indices, lift_o.points))
        p_by_idx = dict(zip(lift_p.source_indices, lift_p.points))
        assert len(common) >= 55
        for i in common:
            assert np.linalg.norm(o_by_idx[i] - p_by_idx[i]) < 1e-4 * diam


class TestSweepPosition:
    """The sweep position carries from each sample to the next within one batched lift."""

    def wavy_views(self, n=100):
        # baseline along +x and both image planes parallel to it: transfer
        # lines are horizontal in image 2 and cross the wave many times
        pose1 = CameraPose.canonical_perspective()
        pose2 = CameraPose(vec3(1.5, 0, 1.0), vec3(1, 0, 0), vec3(0, 1, 0), vec3(1.5, 0, 0))
        # both images show v = y / z, clipped flat at the crests: the flat
        # start rides the first transfer lines (flagged samples), and image 2
        # loses the last eight samples (holes)
        t = np.linspace(0.0, 1.0, n)
        z = 3.0 + 0.2 * np.cos(3 * t)
        y = 0.1 * z * np.clip(np.cos(7 * np.pi * t), -0.97, 0.97)
        samples = np.stack([-0.6 + 1.2 * t, y, z], axis=1)
        img1 = ImageCurve(project_points(samples, pose1)[0])
        img2 = ImageCurve(project_points(samples[:-8], pose2)[0])
        return img1, img2, pose1, pose2

    def test_lift_equals_chain_of_one_row_transfers(self):
        img1, img2, pose1, pose2 = self.wavy_views()
        scale = max(np.max(np.abs(img1.samples)), np.max(np.abs(img2.samples)))
        kept, holes, flagged, points = [], [], [], []
        prev, depends_on_prev = 0.0, 0
        for i, d1 in enumerate(img1.samples):
            try:
                line = epipolar_line(d1, pose1, pose2)
            except DegenerateGeometry:
                flagged.append(i)
                continue
            try:
                hit = transfer_point(line, img2, prev, scale=scale)
            except TransferGap:
                holes.append(i)
                continue
            if transfer_point(line, img2, 0.0, scale=scale).segment != hit.segment:
                depends_on_prev += 1
            prev = hit.arc_pos
            if hit.tangent:
                flagged.append(i)
                continue
            mid, _, parallel = triangulate_midpoints(
                *rays_through(d1, pose1), *rays_through(hit.point, pose2)
            )
            if parallel[0]:
                flagged.append(i)
                continue
            kept.append(i)
            points.append(mid[0])
        # later samples see several crossings, and the carried position picks one
        assert depends_on_prev > 10
        lifted = lift_curve(img1, img2, pose1, pose2)
        assert lifted.source_indices == kept
        assert lifted.holes == holes
        assert lifted.flagged == flagged
        assert np.max(np.abs(lifted.points - np.array(points))) < 1e-12


def reference_match(table, points, directions, prev_pos):
    """The transfer rule on the full ``(n, m)`` hit table, one row after another.

    Returns ``_match``'s four arrays and the table's hit mask.
    """
    band = table.band
    nx, ny = directions[:, 1:], -directions[:, :1]
    offset = (table.start[:, 0] - points[:, :1]) * nx + (table.start[:, 1] - points[:, 1:]) * ny
    denom = table.vec[:, 0] * nx + table.vec[:, 1] * ny
    sin_angle = np.abs(denom) / table.length
    parallel = sin_angle < TANGENCY
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = -offset / denom
    crossing = (w >= table.lo) & (w <= table.hi) & ~parallel
    hit = crossing | (parallel & (np.abs(offset) <= band))
    clamped = np.where(parallel, 0.0, np.clip(w, 0.0, 1.0))
    pos = table.arc + clamped * table.length
    n = len(points)
    segment, weight, arc_pos, tangent = np.full(n, -1), np.zeros(n), np.zeros(n), np.zeros(n, bool)
    prev = prev_pos
    for r in range(n):
        cols = np.flatnonzero(hit[r])
        cols = cols[np.lexsort((cols, pos[r, cols]))]
        segment[r] = -2 if len(cols) else -1
        kept = -np.inf
        for c in cols:
            if pos[r, c] - kept <= band:
                continue
            kept = pos[r, c]
            if kept >= prev - band:
                segment[r], weight[r], arc_pos[r], prev = c, clamped[r, c], kept, kept
                tangent[r] = sin_angle[r, c] < 1e3 * TANGENCY
                break
    return (segment, weight, arc_pos, tangent), hit


@st.composite
def polylines(draw):
    m = draw(st.integers(1, 16))
    coords = st.floats(-2.0, 2.0, allow_nan=False)
    samples = np.array(draw(st.lists(st.tuples(coords, coords), min_size=m + 1, max_size=m + 1)))
    assume(np.all(np.linalg.norm(np.diff(samples, axis=0), axis=1) > 1e-3))
    return ImageCurve(samples)


@st.composite
def pencils(draw, samples, band, kind, n):
    """``n`` transfer lines through one point ``kind`` relative to the polyline.

    A line aims at a point of the curve, at a vertex, or just inside or
    outside ``band`` past a segment's end; unless the lines are parallel, it
    may aim at a point anywhere instead.  It then moves sideways by up to
    ``jitter``, as the lines of noisy poses would.
    """

    def floats(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    def choices(values):
        return np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))

    k = np.array(draw(st.lists(st.integers(0, len(samples) - 2), min_size=n, max_size=n)))
    vec = samples[k + 1] - samples[k]
    t = np.where(choices([True, False]), floats(0.0, 1.0), choices([0.0, 1.0]))
    past = choices([0.0, -0.99, 0.99, -1.01, 1.01]) * band / np.linalg.norm(vec, axis=1)
    targets = samples[k] + (t + np.where(t < 0.5, -np.abs(past), np.abs(past)))[:, None] * vec
    if kind == "infinity":  # orthographic: parallel lines
        angle = draw(st.floats(0.0, np.pi))
        d = np.tile([np.cos(angle), np.sin(angle)], (n, 1))
    else:
        if kind == "far":
            angle = draw(st.floats(-np.pi, np.pi))
            c = 10.0 ** draw(st.floats(0.7, 9.0)) * np.array([np.cos(angle), np.sin(angle)])
        elif kind == "near":
            offset = np.array([1.0, draw(st.floats(-1.0, 1.0))])
            c = targets[0] + 10.0 ** draw(st.floats(-9.0, -3.0)) * offset
        else:
            c = samples[draw(st.integers(0, len(samples) - 1))]
        anywhere = choices([True, False])
        targets[anywhere] = c + np.stack([floats(-2.0, 2.0), floats(-2.0, 2.0)], axis=1)[anywhere]
        v = targets - c
        assume(np.all(np.linalg.norm(v, axis=1) > 1e-12))
        d = v / np.linalg.norm(v, axis=1)[:, None]
    jitter = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3])) * floats(-1.0, 1.0)
    normal = np.stack([-d[:, 1], d[:, 0]], axis=1)
    return targets + floats(-3.0, 3.0)[:, None] * d + jitter[:, None] * normal, d


KINDS = ["far", "near", "vertex", "infinity"]


class TestCandidateStage:
    """``_match`` evaluates only the pencil's candidate pairs, with the full table's results."""

    def check(self, curve, points, directions, band, prev):
        table = _segments(curve, band)
        want, hit = reference_match(table, points, directions, prev)
        line, seg = _candidates(table, points, directions)
        pairs = set(zip(line.tolist(), seg.tolist()))
        assert len(pairs) == len(line)
        assert set(zip(*(a.tolist() for a in hit.nonzero()))) <= pairs
        got = _match(table, points, directions, prev)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @settings(max_examples=100)
    @given(
        data=st.data(),
        curve=polylines(),
        kind=st.sampled_from(KINDS),
        n=st.integers(1, 16),
        band=st.sampled_from([1e-9, 1e-6, 1e-3]),
    )
    def test_matches_full_table(self, data, curve, kind, n, band):
        points, directions = data.draw(pencils(curve.samples, band, kind, n))
        length = np.cumsum(np.linalg.norm(np.diff(curve.samples, axis=0), axis=1))[-1]
        prev = data.draw(st.floats(0.0, float(length)))
        self.check(curve, points, directions, band, prev)

    @settings(max_examples=50)
    @given(data=st.data(), curve=polylines(), kind=st.sampled_from(KINDS))
    def test_one_line_matches_full_table(self, data, curve, kind):
        points, directions = data.draw(pencils(curve.samples, 1e-6, kind, 1))
        self.check(curve, points, directions, 1e-6, 0.0)

    def test_no_lines(self):
        table = _segments(ImageCurve(np.array([[0.0, 0.0], [1.0, 0.0]])), 1e-6)
        got = _match(table, np.empty((0, 2)), np.empty((0, 2)), 0.0)
        assert [a.dtype.kind for a in got] == ["i", "f", "f", "b"]
        assert all(a.shape == (0,) for a in got)

    def test_near_parallel_lines_keep_band_edge_hits(self):
        # lines from a point 1e5 away are compared by their offsets along one
        # normal, each taken at its given point, 3 away from the curve along
        # the line; the margin covers how far that offset drifts from the
        # offset where the line passes the curve
        band = 1e-3
        curve = ImageCurve(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
        targets = np.array([[1.0 + 0.99 * band, 0.0], [-0.99 * band, 0.0], [0.5, 0.0]])
        d = targets - [0.3, 1e5]
        d /= np.linalg.norm(d, axis=1)[:, None]
        for along in (-3.0, 3.0):
            self.check(curve, targets + along * d, d, band, 0.0)

    def test_candidates_grow_linearly(self):
        ds, _ = arc_dataset(3, n_samples=1000)
        c1, c2 = curves_from_dataset(ds)["arc"]
        scale = max(np.max(np.abs(c1.samples)), np.max(np.abs(c2.samples)))
        points, directions, degenerate = epipolar_lines(
            c1.samples, truth_poses(ds, 0), truth_poses(ds, 1)
        )
        table = _segments(c2, TRANSFER_BAND * scale)
        line, _ = _candidates(table, points[~degenerate], directions[~degenerate])
        assert len(line) <= 4 * len(c1.samples)
