import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiframe.dof import Regime
from multiframe.errors import (
    DegenerateGeometry,
    InputError,
    RankDeficientError,
)
from multiframe.geometry import RigidMotion, Rotation, best_fit_motion, vec3
from multiframe.ortho3p import (
    TriangleFrameObs,
    edge_lengths,
    eq4_residual,
    frame_sign_pattern,
    observations_from_dataset,
    pencil_rows,
    recover_motions_consistent,
    solve_triangle,
)
from multiframe.scene import (
    MotionScript,
    random_cloud_scene,
    random_motion_script,
    random_triangle_scene,
    render,
)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def block(a2, b2, c2):
    """The frame-independent quartic block B(a2, b2, c2)."""
    return a2 * a2 + b2 * b2 + c2 * c2 - 2 * a2 * b2 - 2 * a2 * c2 - 2 * b2 * c2


def posed_triple(obs, depths):
    """One frame's triangle in view coordinates (u, v, depth)."""
    return np.column_stack([np.array([obs.p, obs.q, obs.r]), depths])


def make_obs(seed, n_frames=3):
    """Triangle + generic rotations, rendered orthographically."""
    scene = random_triangle_scene(seed)
    script = random_motion_script(seed + 1, n_frames, Regime.ORTHOGRAPHIC, scene)
    ds = render(scene, script, Regime.ORTHOGRAPHIC)
    p, q, r = (scene.points[lab] for lab in ("P", "Q", "R"))
    truth = np.linalg.norm([q - p, r - q, p - r], axis=1)
    return observations_from_dataset(ds, ["P", "Q", "R"]), truth, ds


class TestEdgeLengths:
    def test_unit_right_triangle(self):
        a, b, c = edge_lengths([0, 0], [1, 0], [0, 1])
        assert np.allclose([a, b, c], [1.0, np.sqrt(2.0), 1.0])

    def test_collinear_points_still_have_lengths(self):
        a, b, c = edge_lengths([0, 0], [1, 0], [2, 0])
        assert np.allclose([a, b, c], [1.0, 1.0, 2.0])

    def test_random_triangle_against_recompute(self):
        rng = np.random.default_rng(1)
        p, q, r = rng.normal(size=(3, 2))
        a, b, c = edge_lengths(p, q, r)
        assert np.isclose(a, np.hypot(*(q - p)))
        assert np.isclose(b, np.hypot(*(r - q)))
        assert np.isclose(c, np.hypot(*(p - r)))

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateGeometry):
            edge_lengths([0, 0], [0, 0], [1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(InputError, match="finite"):
            TriangleFrameObs.from_points([bad, 0.0], [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(InputError, match="finite"):
            edge_lengths([0, 0], [1, 0], [0, bad])

    @pytest.mark.parametrize("far", [1e200, 1e155, 1.0e154])
    def test_overflowing_square_rejected(self, far):
        # edge_lengths itself is finite; the squares are not
        assert np.isfinite(edge_lengths([0, 0], [far, 0], [0, far])).all()
        with pytest.raises(InputError, match="overflow"):
            TriangleFrameObs.from_points([0, 0], [far, 0], [0, far])

    def test_edges_squaring_to_zero_are_rank_deficient(self):
        shapes = [[[0, 0], [1, 0], [0, 1]], [[0, 0], [0.9, 0], [0, 1]], [[0, 0], [1, 0], [0.3, 1]]]
        obs = [TriangleFrameObs.from_points(*shape) for shape in 1e-200 * np.array(shapes)]
        assert all(o.lengths_sq == (0.0, 0.0, 0.0) for o in obs)
        with pytest.raises(RankDeficientError):
            solve_triangle(obs)

    @pytest.mark.parametrize("p", [vec3(0, 0, 0), [0.0], 0.0, [[0.0, 0.0]]])
    def test_points_other_than_2_vectors_rejected(self, p):
        with pytest.raises(InputError, match="2-vectors"):
            TriangleFrameObs.from_points(p, [1.0, 0.0], [0.0, 1.0])


class TestEq4:
    @pytest.mark.parametrize("x", [(np.nan, 1, 1), (1, np.nan, 1), (1, 1, np.nan), (1, -1, 1)])
    def test_nan_or_negative_squared_length_rejected(self, x):
        obs = TriangleFrameObs.from_points([0, 0], [1, 0], [0, 1])
        with pytest.raises(InputError):
            eq4_residual(*x, obs)

    def test_truth_residual_vanishes(self):
        obs_list, truth, _ = make_obs(2)
        scale = max(max(o.a, o.b, o.c) for o in obs_list)
        for obs in obs_list:
            r = eq4_residual(truth[0] ** 2, truth[1] ** 2, truth[2] ** 2, obs)
            assert abs(r) < 1e-9 * scale**4

    def test_parallel_frame_zero(self):
        # triangle parallel to the plane: observed lengths equal true ones
        obs = TriangleFrameObs.from_points([0, 0], [1, 0], [0.2, 0.9])
        r = eq4_residual(obs.a**2, obs.b**2, obs.c**2, obs)
        assert abs(r) < 1e-12

    def test_degree_four_homogeneity(self):
        obs = TriangleFrameObs.from_points([0, 0], [1.1, 0], [0.3, 0.8])
        obs2 = TriangleFrameObs.from_points([0, 0], [2.2, 0], [0.6, 1.6])
        x = (1.5, 1.7, 1.1)
        r1 = eq4_residual(*x, obs)
        r2 = eq4_residual(*(4 * v for v in x), obs2)
        assert np.isclose(r2, 16 * r1, rtol=1e-12)

    def test_matches_compact_difference_form(self):
        # independent oracle: (A)^2+(B)^2+(C)^2-2AB-2AC-2BC with A=a2-ai2 ...
        rng = np.random.default_rng(3)
        obs = TriangleFrameObs.from_points(*rng.normal(size=(3, 2)))
        for _ in range(10):
            a2, b2, c2 = rng.uniform(0.1, 4.0, size=3)
            qa, qb, qc = a2 - obs.a**2, b2 - obs.b**2, c2 - obs.c**2
            compact = qa**2 + qb**2 + qc**2 - 2 * qa * qb - 2 * qa * qc - 2 * qb * qc
            assert np.isclose(eq4_residual(a2, b2, c2, obs), compact, atol=1e-9)


class TestPencilRows:
    def test_identical_frames_rank_deficient(self):
        obs_list, _, _ = make_obs(4)
        with pytest.raises(RankDeficientError):
            solve_triangle([obs_list[0], obs_list[1], obs_list[0]])

    def test_truth_satisfies_every_row(self):
        obs_list, truth, _ = make_obs(5, n_frames=5)
        m, scale = pencil_rows(obs_list)
        x = truth**2 / scale**2
        y = np.array([*x, block(*x), 1.0])
        assert np.all(np.abs(m @ y) < 1e-12)

    def test_rows_match_eq4_residual(self):
        # polynomial identity sampled at 10 random arguments
        rng = np.random.default_rng(6)
        obs_list, _, _ = make_obs(7)
        m, scale = pencil_rows(obs_list)
        h = scale**2
        for _ in range(10):
            x = rng.uniform(0.0, 5.0, size=3)
            got = m @ np.array([*(x / h), block(*x) / h**2, 1.0]) * h**2
            direct = [eq4_residual(*x, obs) for obs in obs_list]
            assert np.allclose(got, direct, atol=1e-9)


class TestSolveTriangle:
    def test_truth_in_candidate_set(self):
        hits = 0
        for seed in range(40):
            obs_list, truth, _ = make_obs(seed * 3 + 11)
            sols = solve_triangle(obs_list)
            best = min(
                np.max(np.abs(np.array(s.lengths) - truth) / truth) for s in sols
            )
            if best < 1e-6:
                hits += 1
        assert hits == 40

    def test_parallel_motion_rank_deficient(self):
        # in-plane rotations only: projected lengths never change
        scene = random_triangle_scene(9)
        rot = Rotation.from_axis_angle(vec3(0, 0, 1), 0.7)
        rot2 = Rotation.from_axis_angle(vec3(0, 0, 1), 1.9)
        script = MotionScript(
            motions=[
                RigidMotion.identity(),
                RigidMotion(rot, vec3(0.2, 0, 0.5)),
                RigidMotion(rot2, vec3(-0.1, 0.3, 1.0)),
            ]
        )
        ds = render(scene, script, Regime.ORTHOGRAPHIC)
        with pytest.raises(RankDeficientError):
            solve_triangle(observations_from_dataset(ds))

    def test_fourth_frame_filters_spurious_root(self):
        singles = 0
        trials = 0
        for seed in range(40):
            obs_list, truth, _ = make_obs(seed * 5 + 201, n_frames=4)
            sols = solve_triangle(obs_list)
            trials += 1
            if len(sols) == 1:
                singles += 1
            best = min(
                np.max(np.abs(np.array(s.lengths) - truth) / truth) for s in sols
            )
            assert best < 1e-6
        assert singles >= trials - 1  # ties are possible but rare

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**31 - 2), n_frames=st.integers(3, 6))
    def test_noiseless_scene_solved(self, seed, n_frames):
        # three frames give both roots of the exact pencil, more frames the one
        # of least misfit
        obs_list, truth, _ = make_obs(seed, n_frames)
        sols = solve_triangle(obs_list)
        best = min(np.max(np.abs(np.array(s.lengths) - truth)) for s in sols)
        assert best < 1e-10 * truth.max()
        if n_frames >= 4:
            assert len(sols) == 1

    def test_two_frames_rejected(self):
        obs_list, _, _ = make_obs(13)
        with pytest.raises(InputError):
            solve_triangle(obs_list[:2])

    def test_perspective_dataset_rejected(self):
        scene = random_cloud_scene(13, n_points=3)
        script = random_motion_script(14, 3, Regime.PERSPECTIVE_CALIBRATED, scene)
        ds = render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
        with pytest.raises(InputError, match="orthographic"):
            observations_from_dataset(ds)


class TestDepths:
    def test_parallel_frame_offsets_zero(self):
        obs = TriangleFrameObs.from_points([0, 0], [1, 0], [0.2, 0.9])
        _, depths = frame_sign_pattern((obs.a**2, obs.b**2, obs.c**2), obs)
        assert np.allclose(depths, 0.0, atol=1e-9)

    def test_offsets_match_truth_up_to_shift_and_sign(self):
        for seed in (21, 22, 23, 24):
            obs_list, truth, ds = make_obs(seed)
            sols = solve_triangle(obs_list)
            sol = min(
                sols, key=lambda s: np.max(np.abs(np.array(s.lengths) - truth))
            )
            for i, fr in enumerate(sol.frames):
                plus, minus = fr.depths, -fr.depths
                m = ds.truth.motions[i]
                true_depths = np.array(
                    [m.apply(ds.truth.points3d[lab])[2] for lab in ("P", "Q", "R")]
                )
                true_depths -= true_depths[0]
                err_plus = np.max(np.abs(plus - true_depths))
                err_minus = np.max(np.abs(minus - true_depths))
                assert min(err_plus, err_minus) < 1e-8

    def test_reflection_also_satisfies_relations(self):
        obs_list, truth, _ = make_obs(25)
        sols = solve_triangle(obs_list)
        sol = sols[0]
        for fr, obs in zip(sol.frames, obs_list):
            for depths in (fr.depths, -fr.depths):
                d3 = posed_triple(obs, depths)
                got = [
                    np.linalg.norm(d3[1] - d3[0]),
                    np.linalg.norm(d3[2] - d3[1]),
                    np.linalg.norm(d3[0] - d3[2]),
                ]
                assert np.allclose(got, sol.lengths, atol=1e-7)


class TestRecoverMotion:
    def test_identical_triples_identity(self):
        t = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        motion, resid = best_fit_motion(t, t.copy())
        assert np.allclose(motion.rotation.matrix, np.eye(3), atol=1e-12)
        assert resid < 1e-12

    def test_recovers_scripted_rotation_from_true_depths(self):
        # with the generator's own depths the alignment is exact
        for seed in (31, 32, 33):
            obs_list, truth, ds = make_obs(seed)
            triples = []
            for i, obs in enumerate(obs_list):
                m = ds.truth.motions[i]
                depths = np.array(
                    [m.apply(ds.truth.points3d[lab])[2] for lab in ("P", "Q", "R")]
                )
                triples.append(posed_triple(obs, depths))
            for i in (1, 2):
                got, resid = best_fit_motion(triples[0], triples[i])
                assert got.rotation.angle_to(ds.truth.motions[i].rotation) < 1e-7
                assert resid < 1e-9

    def test_scripted_rotation_reachable_within_reflection_gauge(self):
        # solver depths carry an unresolvable per-frame reflection; the
        # scripted rotation must appear among the motions recovered over
        # the four reflection combinations, each aligning exactly
        for seed in (31, 32, 33):
            obs_list, truth, ds = make_obs(seed)
            sols = solve_triangle(obs_list)
            sol = min(
                sols, key=lambda s: np.max(np.abs(np.array(s.lengths) - truth))
            )
            d0 = sol.frames[0].depths
            for i in (1, 2):
                di = sol.frames[i].depths
                angles = []
                for base_depths in (d0, -d0):
                    for frame_depths in (di, -di):
                        base = posed_triple(obs_list[0], base_depths)
                        target = posed_triple(obs_list[i], frame_depths)
                        motion, resid = best_fit_motion(base, target)
                        assert resid < 1e-8
                        angles.append(
                            motion.rotation.angle_to(ds.truth.motions[i].rotation)
                        )
                assert min(angles) < 1e-7

    def test_mirrored_planar_triple_is_absorbed_by_conjugate_rotation(self):
        # three posed points are coplanar, so a depth reflection aligns
        # exactly but flips the recovered rotation to its mirror conjugate
        obs_list, truth, ds = make_obs(36)
        depths0 = np.array([ds.truth.points3d[lab][2] for lab in ("P", "Q", "R")])
        m = ds.truth.motions[1]
        depths = np.array(
            [m.apply(ds.truth.points3d[lab])[2] for lab in ("P", "Q", "R")]
        )
        depths -= depths[0]
        base = posed_triple(obs_list[0], depths0)
        plus = posed_triple(obs_list[1], depths)
        minus = posed_triple(obs_list[1], -depths)
        (_, r_plus), (_, r_minus) = best_fit_motion(base, plus), best_fit_motion(base, minus)
        assert r_plus < 1e-6 or r_minus < 1e-6

    def test_both_reflections_align_equally(self):
        # a triangle and its mirror image are congruent, so a frame's two
        # reflections align with the base equally well: the residual cannot
        # choose between them, and recover_motions_consistent keeps the
        # representative depths
        for seed in (21, 22, 23, 24, 25, 36):
            obs_list, truth, _ = make_obs(seed)
            for sol in solve_triangle(obs_list):
                base = posed_triple(obs_list[0], sol.frames[0].depths)
                for obs, fr in zip(obs_list[1:], sol.frames[1:]):
                    _, r_plus = best_fit_motion(base, posed_triple(obs, fr.depths))
                    _, r_minus = best_fit_motion(base, posed_triple(obs, -fr.depths))
                    assert abs(r_plus - r_minus) < 1e-12

    def test_consistent_motions_map_frame_one_onto_every_frame(self):
        for seed in (21, 22, 23, 24, 25, 31, 32, 33, 36):
            for n_frames in (3, 4):
                obs_list, _, _ = make_obs(seed, n_frames)
                scale = max(max(o.a, o.b, o.c) for o in obs_list)
                for sol in solve_triangle(obs_list):
                    posed = [posed_triple(o, f.depths) for o, f in zip(obs_list, sol.frames)]
                    motions = recover_motions_consistent(obs_list, sol)
                    assert len(motions) == n_frames
                    first = motions[0][0]
                    assert np.array_equal(first.rotation.matrix, np.eye(3))
                    assert np.array_equal(first.translation, np.zeros(3))
                    for (motion, resid, reflected), target in zip(motions, posed):
                        assert reflected is False
                        moved = posed[0] @ motion.rotation.matrix.T + motion.translation
                        assert np.abs(moved - target).max() < 1e-12 * scale
                        assert resid < 1e-12 * scale

    def test_frame_count_mismatch_rejected(self):
        obs_list, _, _ = make_obs(21, 4)
        sol = solve_triangle(obs_list)[0]
        with pytest.raises(InputError):
            recover_motions_consistent(obs_list[:3], sol)
        with pytest.raises(InputError):
            recover_motions_consistent(obs_list + obs_list[:1], sol)
