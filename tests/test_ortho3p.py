import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiframe.dof import Regime
from multiframe.errors import (
    DegenerateGeometry,
    InconsistentDataError,
    InputError,
    RankDeficientError,
)
from multiframe.geometry import RigidMotion, Rotation, best_fit_motion, vec3
from multiframe.ortho3p import (
    ROOT_CLAMP,
    _quadratic_roots,
    eq4_residual,
    frame_sign_pattern,
    observations_from_dataset,
    pencil_rows,
    recover_motions_consistent,
    solve_triangle,
)
from multiframe.scene import (
    MotionScript,
    NoiseSpec,
    add_noise,
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


def posed_triple(frame, depths):
    """One frame's triangle in view coordinates (u, v, depth)."""
    return np.column_stack([frame, depths])


def squared_edges(obs):
    """Squared projected lengths (|PQ|^2, |QR|^2, |RP|^2), one row per frame."""
    return np.sum((np.roll(obs, -1, axis=-2) - obs) ** 2, axis=-1)


def make_obs(seed, n_frames=3, sigma=0.0):
    """Triangle + generic rotations, rendered orthographically."""
    scene = random_triangle_scene(seed)
    script = random_motion_script(seed + 1, n_frames, Regime.ORTHOGRAPHIC, scene)
    ds = render(scene, script, Regime.ORTHOGRAPHIC)
    if sigma:
        ds = add_noise(ds, NoiseSpec(sigma, seed + 2))
    p, q, r = (scene.points[lab] for lab in ("P", "Q", "R"))
    truth = np.linalg.norm([q - p, r - q, p - r], axis=1)
    return observations_from_dataset(ds), truth, ds


def turned(points3d, turns):
    """Orthographic (k, 3, 2) views of ``points3d`` turned by each (axis, angle)."""
    axes = [vec3(*ax) / np.linalg.norm(ax) for ax, _ in turns]
    views = [points3d @ Rotation.from_axis_angle(ax, t).matrix.T for ax, (_, t) in zip(axes, turns)]
    return np.array(views)[..., :2]


# triangles in the plane z = 0, and three generic views of them, the first face on
UNIT_RIGHT = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
FLAT = np.array([[0.0, 0, 0], [1, 0, 0], [0.3, 1, 0]])
FLAT_LENGTHS = np.linalg.norm(np.roll(FLAT, -1, axis=0) - FLAT, axis=1)
TURNS = [((0, 0, 1), 0.0), ((1, 0, 0), 0.7), ((0.3, 1, 0.5), 1.1)]


class TestEdgeLengths:
    # the projected lengths and the checks of the observation array, both made by
    # solve_triangle; frame 1 of TURNS sees a z = 0 triangle face on, so its projected
    # lengths are a root.  That frame's quartic has a double zero there, which halves
    # the digits of the root
    def test_unit_right_triangle(self):
        sols = solve_triangle(turned(UNIT_RIGHT, TURNS))
        assert min(np.max(np.abs(np.array(s.lengths) - [1, np.sqrt(2), 1])) for s in sols) < 1e-6

    def test_collinear_points_still_have_lengths(self):
        # frame 3 sees the triangle edge on: P, Q and R project onto one line
        obs = turned(FLAT, [TURNS[0], TURNS[2], ((1, 0, 0), np.pi / 2)])
        assert np.allclose(obs[2, :, 1], 0.0)
        sols = solve_triangle(obs)
        assert min(np.max(np.abs(np.array(s.lengths) - FLAT_LENGTHS)) for s in sols) < 1e-6

    def test_random_triangle_against_recompute(self):
        rng = np.random.default_rng(1)
        p, q, r = tri = rng.normal(size=(3, 3))
        turns = [(rng.normal(size=3), rng.uniform(0.3, 2.5)) for _ in range(3)]
        sols = solve_triangle(turned(tri, turns))
        truth = [np.linalg.norm(q - p), np.linalg.norm(r - q), np.linalg.norm(p - r)]
        assert min(np.max(np.abs(np.array(s.lengths) - truth)) for s in sols) < 1e-10

    def test_coincident_points_rejected(self):
        obs = turned(UNIT_RIGHT, TURNS)
        obs[1, 1] = obs[1, 0]
        with pytest.raises(DegenerateGeometry, match="coincident"):
            solve_triangle(obs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        for where in [(0, 0, 0), (2, 2, 1)]:
            obs = turned(UNIT_RIGHT, TURNS)
            obs[where] = bad
            with pytest.raises(InputError, match="finite"):
                solve_triangle(obs)

    @pytest.mark.parametrize("far", [1e200, 1e155, 1.0e154])
    def test_overflowing_square_rejected(self, far):
        # the lengths are finite; the square of the longest, sqrt(2) far, is not
        assert np.isfinite(np.sqrt(2) * far)
        with pytest.raises(InputError, match="overflow"):
            solve_triangle(far * turned(UNIT_RIGHT, TURNS))

    def test_edges_squaring_to_zero_are_rank_deficient(self):
        shapes = [[[0, 0], [1, 0], [0, 1]], [[0, 0], [0.9, 0], [0, 1]], [[0, 0], [1, 0], [0.3, 1]]]
        obs = 1e-200 * np.array(shapes)
        assert (squared_edges(obs) == 0.0).all()
        with pytest.raises(RankDeficientError):
            solve_triangle(obs)

    @pytest.mark.parametrize("p", [vec3(0, 0, 0), [0.0], 0.0, [[0.0, 0.0]]])
    def test_points_other_than_2_vectors_rejected(self, p):
        # every point of three frames is p
        obs = np.broadcast_to(np.asarray(p, dtype=float), (3, 3, *np.shape(p)))
        with pytest.raises(InputError, match=r"\(k, 3, 2\)"):
            solve_triangle(obs)

    @pytest.mark.parametrize("bad", [[0.0], ["a", "b"]])
    def test_ragged_or_non_numeric_points_rejected(self, bad):
        with pytest.raises(InputError, match=r"\(k, 3, 2\) array of numbers"):
            solve_triangle([[[0.0, 0.0], [1.0, 0.0], bad]] * 3)

    @pytest.mark.parametrize("shape", [(3, 2, 2), (3, 4, 2), (6,), ()])
    def test_other_than_three_points_rejected(self, shape):
        with pytest.raises(InputError, match=r"\(k, 3, 2\)"):
            solve_triangle(np.ones(shape))


class TestEq4:
    @pytest.mark.parametrize("x", [(np.nan, 1, 1), (1, np.nan, 1), (1, 1, np.nan), (1, -1, 1)])
    def test_nan_or_negative_squared_length_rejected(self, x):
        with pytest.raises(InputError):
            eq4_residual(*x, (1.0, 2.0, 1.0))

    def test_truth_residual_vanishes(self):
        obs, truth, _ = make_obs(2)
        scale2 = squared_edges(obs).max()
        for row in squared_edges(obs).tolist():
            r = eq4_residual(truth[0] ** 2, truth[1] ** 2, truth[2] ** 2, row)
            assert abs(r) < 1e-9 * scale2**2

    def test_parallel_frame_zero(self):
        # triangle parallel to the plane: observed lengths equal true ones
        row = squared_edges(np.array([[0, 0], [1, 0], [0.2, 0.9]])).tolist()
        assert abs(eq4_residual(*row, row)) < 1e-12

    def test_degree_four_homogeneity(self):
        row = squared_edges(np.array([[0, 0], [1.1, 0], [0.3, 0.8]])).tolist()
        row2 = squared_edges(np.array([[0, 0], [2.2, 0], [0.6, 1.6]])).tolist()
        x = (1.5, 1.7, 1.1)
        r1 = eq4_residual(*x, row)
        r2 = eq4_residual(*(4 * v for v in x), row2)
        assert np.isclose(r2, 16 * r1, rtol=1e-12)

    def test_matches_compact_difference_form(self):
        # independent oracle: (A)^2+(B)^2+(C)^2-2AB-2AC-2BC with A=a2-ai2 ...
        rng = np.random.default_rng(3)
        row = squared_edges(rng.normal(size=(3, 2))).tolist()
        for _ in range(10):
            a2, b2, c2 = rng.uniform(0.1, 4.0, size=3)
            qa, qb, qc = a2 - row[0], b2 - row[1], c2 - row[2]
            compact = qa**2 + qb**2 + qc**2 - 2 * qa * qb - 2 * qa * qc - 2 * qb * qc
            assert np.isclose(eq4_residual(a2, b2, c2, row), compact, atol=1e-9)


def pencil_of(obs):
    squares = squared_edges(obs)
    return pencil_rows(np.sqrt(squares).tolist(), squares.tolist())


class TestPencilRows:
    def test_identical_frames_rank_deficient(self):
        obs, _, _ = make_obs(4)
        with pytest.raises(RankDeficientError):
            solve_triangle(obs[[0, 1, 0]])

    def test_truth_satisfies_every_row(self):
        obs_list, truth, _ = make_obs(5, n_frames=5)
        m, scale = pencil_of(obs_list)
        x = truth**2 / scale**2
        y = np.array([*x, block(*x), 1.0])
        assert np.all(np.abs(m @ y) < 1e-12)

    def test_rows_match_eq4_residual(self):
        # polynomial identity sampled at 10 random arguments
        rng = np.random.default_rng(6)
        obs_list, _, _ = make_obs(7)
        m, scale = pencil_of(obs_list)
        h = scale**2
        for _ in range(10):
            x = rng.uniform(0.0, 5.0, size=3)
            got = m @ np.array([*(x / h), block(*x) / h**2, 1.0]) * h**2
            direct = [eq4_residual(*x, row) for row in squared_edges(obs_list).tolist()]
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
        assert all(s.below_floor == 0.0 for s in sols)
        if n_frames >= 4:
            assert len(sols) == 1

    def test_two_frames_rejected(self):
        obs_list, _, _ = make_obs(13)
        with pytest.raises(InputError):
            solve_triangle(obs_list[:2])

    def test_line_missing_the_conic_keeps_its_vertex(self):
        # s^2 - 2 s + 2 has no real root; s = 1 is the point of least |value|
        assert _quadratic_roots(1.0, -2.0, 2.0) == [1.0]
        assert _quadratic_roots(-3.0, 0.0, -1.0) == [0.0]

    @pytest.mark.parametrize("seed, n_frames", [(3, 4), (16, 3), (16, 4), (27, 4)])
    def test_root_least_below_the_floor_is_kept(self, seed, n_frames):
        # noisy scenes where no root clears the largest observed squared lengths:
        # the one least far below them is clamped up to them
        obs, truth, _ = make_obs(seed, n_frames, sigma=1e-3)
        (sol,) = solve_triangle(obs)
        assert sol.below_floor > 1.0
        floor = np.sqrt(squared_edges(obs).max(axis=0))
        assert (np.array(sol.lengths) >= floor * (1 - 1e-12)).all()
        assert np.max(np.abs(np.array(sol.lengths) - truth)) < 0.5 * truth.max()

    def test_noisy_scenes_always_give_a_solution(self):
        fallbacks = 0
        for seed in range(40):
            for n_frames in (3, 4):
                obs, truth, _ = make_obs(seed, n_frames, sigma=1e-3)
                sols = solve_triangle(obs)
                assert 1 <= len(sols) <= (2 if n_frames == 3 else 1)
                below = [s.below_floor for s in sols]
                assert below == [0.0] * len(sols) or (len(sols) == 1 and below[0] > 1.0)
                fallbacks += below[0] > 0
                motions = recover_motions_consistent(obs, sols[0])
                assert len(motions) == n_frames
        assert 0 < fallbacks < 20

    def test_perspective_dataset_rejected(self):
        scene = random_cloud_scene(13, n_points=3)
        script = random_motion_script(14, 3, Regime.PERSPECTIVE_CALIBRATED, scene)
        ds = render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
        with pytest.raises(InputError, match="orthographic"):
            observations_from_dataset(ds)


class TestDepths:
    def test_parallel_frame_offsets_zero(self):
        squares = squared_edges(np.array([[[0, 0], [1, 0], [0.2, 0.9]]])).tolist()
        lengths = np.sqrt(squares).tolist()
        _, depths = frame_sign_pattern(squares[0], lengths, squares)
        assert depths.shape == (1, 3)
        assert np.allclose(depths, 0.0, atol=1e-9)

    def test_one_row_per_frame(self):
        obs, _, _ = make_obs(21, n_frames=5)
        for sol in solve_triangle(obs):
            assert sol.depths.shape == (5, 3)
            assert len(sol.patterns) == 5
            assert (sol.depths[:, 0] == 0.0).all()

    def test_root_below_a_frame_is_inconsistent(self):
        squares = squared_edges(make_obs(21)[0]).tolist()
        lengths = np.sqrt(squares).tolist()
        x = np.max(squares, axis=0)
        x[1] -= 2 * ROOT_CLAMP * max(map(max, squares))
        with pytest.raises(InconsistentDataError):
            frame_sign_pattern(x.tolist(), lengths, squares)

    def test_offsets_match_truth_up_to_shift_and_sign(self):
        for seed in (21, 22, 23, 24):
            obs_list, truth, ds = make_obs(seed)
            sols = solve_triangle(obs_list)
            sol = min(
                sols, key=lambda s: np.max(np.abs(np.array(s.lengths) - truth))
            )
            for i, depths in enumerate(sol.depths):
                plus, minus = depths, -depths
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
        for frame_depths, frame in zip(sol.depths, obs_list):
            for depths in (frame_depths, -frame_depths):
                d3 = posed_triple(frame, depths)
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
            d0 = sol.depths[0]
            for i in (1, 2):
                di = sol.depths[i]
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
                base = posed_triple(obs_list[0], sol.depths[0])
                for frame, depths in zip(obs_list[1:], sol.depths[1:]):
                    _, r_plus = best_fit_motion(base, posed_triple(frame, depths))
                    _, r_minus = best_fit_motion(base, posed_triple(frame, -depths))
                    assert abs(r_plus - r_minus) < 1e-12

    def test_consistent_motions_map_frame_one_onto_every_frame(self):
        for seed in (21, 22, 23, 24, 25, 31, 32, 33, 36):
            for n_frames in (3, 4):
                obs_list, _, _ = make_obs(seed, n_frames)
                scale = np.sqrt(squared_edges(obs_list).max())
                for sol in solve_triangle(obs_list):
                    posed = [posed_triple(o, d) for o, d in zip(obs_list, sol.depths)]
                    motions = recover_motions_consistent(obs_list, sol)
                    assert len(motions) == n_frames
                    first = motions[0][0]
                    assert np.array_equal(first.rotation.matrix, np.eye(3))
                    assert np.array_equal(first.translation, np.zeros(3))
                    for (motion, resid), target in zip(motions, posed):
                        moved = posed[0] @ motion.rotation.matrix.T + motion.translation
                        assert np.abs(moved - target).max() < 1e-12 * scale
                        assert resid < 1e-12 * scale

    def test_frame_count_mismatch_rejected(self):
        obs_list, _, _ = make_obs(21, 4)
        sol = solve_triangle(obs_list)[0]
        with pytest.raises(InputError):
            recover_motions_consistent(obs_list[:3], sol)
        with pytest.raises(InputError):
            recover_motions_consistent(np.concatenate([obs_list, obs_list[:1]]), sol)
        with pytest.raises(InputError):
            recover_motions_consistent(obs_list[..., :1], sol)
