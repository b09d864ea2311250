import numpy as np
import pytest

from first_order import SCENE_CENTER, image_map, random_scene, relative_singular_values
from multiframe.dof import Regime, dof_verdict, verdict_table
from multiframe.errors import InputError
from multiframe.geometry import CameraPose, Rotation, project_points, vec3

# the fourteen worked integer cases, frozen, and the orthographic two points and one
# line that the rank check below found unrecoverable
GOLDEN = [
    # (regime, p, s, k, dof, info, balanced, feasible, by_claim)
    (Regime.ORTHOGRAPHIC, 3, 0, 3, 18, 18, "=", True, False),
    (Regime.ORTHOGRAPHIC, 4, 0, 2, 16, 16, "=", False, False),
    (Regime.ORTHOGRAPHIC, 2, 1, 4, 24, 24, "=", False, False),
    (Regime.PERSPECTIVE_CALIBRATED, 4, 0, 2, 17, 16, ">", False, False),
    (Regime.PERSPECTIVE_CALIBRATED, 4, 0, 3, 23, 24, "<", True, False),
    (Regime.PERSPECTIVE_CALIBRATED, 5, 0, 2, 20, 20, "=", True, False),
    (Regime.PERSPECTIVE_CALIBRATED, 3, 1, 3, 24, 24, "=", True, False),
    (Regime.PERSPECTIVE_CALIBRATED, 0, 6, 3, 35, 36, "<", True, False),
    (Regime.PERSPECTIVE_UNCALIBRATED, 10, 0, 2, 41, 40, ">", False, False),
    (Regime.PERSPECTIVE_UNCALIBRATED, 11, 0, 2, 44, 44, "=", False, False),
    (Regime.PERSPECTIVE_UNCALIBRATED, 7, 0, 2, 32, 28, ">", False, False),
    (Regime.PERSPECTIVE_UNCALIBRATED, 7, 0, 3, 41, 42, "<", False, True),
    (Regime.PERSPECTIVE_UNCALIBRATED, 6, 0, 3, 38, 36, ">", False, False),
    (Regime.PERSPECTIVE_UNCALIBRATED, 6, 0, 4, 47, 48, "<", True, False),
    (Regime.PERSPECTIVE_UNCALIBRATED, 5, 0, 8, 80, 80, "=", True, False),
]


@pytest.mark.parametrize("regime,p,s,k,dof,info,balanced,feasible,by_claim", GOLDEN)
def test_golden_cases(regime, p, s, k, dof, info, balanced, feasible, by_claim):
    v = dof_verdict(regime, p, s, k)
    assert (v.dof, v.info, v.balanced) == (dof, info, balanced)
    assert v.feasible is feasible
    assert v.by_claim is by_claim


def test_two_frame_orthographic_override_has_reason():
    v = dof_verdict(Regime.ORTHOGRAPHIC, 4, 0, 2)
    assert v.dof == v.info == 16
    assert not v.feasible
    assert v.override_reason


def test_single_point_many_frames_infeasible():
    v = dof_verdict(Regime.ORTHOGRAPHIC, 1, 0, 100)
    assert v.dof == 2 + 5 * 99 == 497
    assert v.info == 200
    assert not v.feasible


def test_eleven_points_two_frames_override():
    v = dof_verdict(Regime.PERSPECTIVE_UNCALIBRATED, 11, 0, 2)
    assert v.dof == v.info == 44
    assert not v.feasible
    assert "seventh" in v.override_reason


def test_three_frame_claim_is_distinct_state():
    v = dof_verdict(Regime.PERSPECTIVE_UNCALIBRATED, 7, 0, 3)
    assert v.status == "infeasible-by-claim"
    assert v.by_claim and not v.feasible
    assert v.override_reason


def test_four_points_never_recoverable():
    # the general balance gives 9k+5 unknowns vs 8k measurements; the
    # conclusion (always short by at least k+5) holds for every k
    for k in (1, 2, 5, 20, 1000):
        v = dof_verdict(Regime.PERSPECTIVE_UNCALIBRATED, 4, 0, k)
        assert v.dof == 9 * k + 5
        assert v.info == 8 * k
        assert v.dof > v.info
        assert not v.feasible
        assert v.override_reason


def test_feasible_implies_balance():
    # invariant: feasible => dof <= info, across a broad grid
    for regime in Regime:
        s_range = [0] if regime is Regime.PERSPECTIVE_UNCALIBRATED else range(0, 4)
        for v in verdict_table(regime, range(1, 12), s_range, range(1, 9)):
            if v.feasible:
                assert v.dof <= v.info
            if v.override_reason and v.dof <= v.info:
                assert not v.feasible


def test_monotonicity_in_frames():
    # info - dof is nondecreasing in k once per-frame information
    # exceeds the per-frame motion unknowns
    for p, s in [(3, 0), (4, 1), (2, 2)]:
        if 2 * p + 2 * s > 5:
            slacks = [
                v.info - v.dof
                for v in verdict_table(Regime.ORTHOGRAPHIC, [p], [s], range(1, 10))
            ]
            assert all(b >= a for a, b in zip(slacks, slacks[1:]))
        if 2 * p + 2 * s > 6:
            slacks = [
                v.info - v.dof
                for v in verdict_table(
                    Regime.PERSPECTIVE_CALIBRATED, [p], [s], range(1, 10)
                )
            ]
            assert all(b >= a for a, b in zip(slacks, slacks[1:]))
    for p in (5, 6, 9):
        if 2 * p > 9:
            slacks = [
                v.info - v.dof
                for v in verdict_table(
                    Regime.PERSPECTIVE_UNCALIBRATED, [p], [0], range(1, 10)
                )
            ]
            assert all(b >= a for a, b in zip(slacks, slacks[1:]))


def test_table_matches_pointwise_calls():
    table = verdict_table(Regime.PERSPECTIVE_CALIBRATED, range(1, 5), range(0, 2), range(1, 4))
    assert len(table) == 4 * 2 * 3
    for v in table:
        single = dof_verdict(Regime.PERSPECTIVE_CALIBRATED, v.p, v.s, v.k)
        assert single == v


def test_empty_range_gives_empty_table():
    assert verdict_table(Regime.ORTHOGRAPHIC, [], [0], [3]) == []


def test_uncalibrated_rejects_lines():
    with pytest.raises(InputError):
        dof_verdict(Regime.PERSPECTIVE_UNCALIBRATED, 7, 1, 4)


def test_invalid_counts_rejected():
    with pytest.raises(InputError, match="at least one traced feature"):
        dof_verdict(Regime.ORTHOGRAPHIC, 0, 0, 3)
    with pytest.raises(InputError, match="at least one frame"):
        dof_verdict(Regime.ORTHOGRAPHIC, 3, 0, 0)
    with pytest.raises(InputError, match="nonnegative"):
        dof_verdict(Regime.ORTHOGRAPHIC, -1, 2, 3)
    with pytest.raises(InputError, match="at least one traced feature"):
        dof_verdict(Regime.PERSPECTIVE_UNCALIBRATED, 0, 0, 4)


def test_describe_mentions_override():
    v = dof_verdict(Regime.PERSPECTIVE_UNCALIBRATED, 11, 0, 2)
    text = v.describe()
    assert "44 = 44" in text
    assert "infeasible" in text



# The rank check.  A verdict is right when, at generic scenes, the Jacobian of the image
# map (tests/first_order.py) has a null space exactly as large as the gauge: a feasible
# verdict leaves no other null direction, an infeasible one at least one more.  By the
# constant-rank theorem each extra direction is a one-parameter family of scenes with the
# same images (Huang & Netravali, Motion and structure from feature correspondences: a
# review, Proc. IEEE 82(2), 1994).
RANK_SEEDS = (1, 2, 3)
NULL = 1e-7  # a singular value below NULL times the largest is null
GAP = 100  # the smallest value above the cut is at least GAP times the largest below it


def gauge(regime, s, k):
    """Null directions of every scene: the common depth and each further frame's depth
    shift under orthography, the scale under perspective, and the slide of each of a
    line's two points along it."""
    return {
        Regime.ORTHOGRAPHIC: k + 2 * s,
        Regime.PERSPECTIVE_CALIBRATED: 1 + 2 * s,
        Regime.PERSPECTIVE_UNCALIBRATED: 1,
    }[regime]


def rank_cells(regime):
    if regime is Regime.PERSPECTIVE_UNCALIBRATED:
        return [(p, 0, k) for p in range(3, 12) for k in range(2, 6)]
    return [(p, s, k) for p in range(5) for s in range(4) for k in range(2, 7) if p + s]


def null_dimension(regime, p, s, k, seed):
    theta = random_scene(regime, p, s, k, np.random.default_rng(seed))
    rel = relative_singular_values(theta, regime, p, s, k)
    n = int(np.sum(rel < NULL))
    below = rel[n - 1] if n else 0.0
    assert rel[n] >= GAP * below, f"no clear gap at {(regime, p, s, k, seed)}: {rel}"
    return n


@pytest.mark.parametrize("regime", list(Regime))
def test_image_map_matches_package_projection(regime):
    p, k = 5, 3
    theta = random_scene(regime, p, 0, k, np.random.default_rng(7))
    images = image_map(theta[None], regime, p, 0, k).reshape(k, p, 2)
    points = theta[: 3 * p].reshape(p, 3)
    motions = np.concatenate([np.zeros((1, 6)), theta[3 * p : 3 * p + 6 * (k - 1)].reshape(-1, 6)])
    focal = theta[-3 * k :].reshape(k, 3)
    for j, (w, t) in enumerate(zip(motions[:, :3], motions[:, 3:])):
        angle = np.linalg.norm(w)
        rot = Rotation.from_axis_angle(w / angle, angle) if angle else Rotation.identity()
        moved = (points - SCENE_CENTER) @ rot.matrix.T + SCENE_CENTER + t
        if regime is Regime.ORTHOGRAPHIC:
            pose = CameraPose.canonical_orthographic()
        elif regime is Regime.PERSPECTIVE_CALIBRATED:
            pose = CameraPose.canonical_perspective()
        else:
            pose = CameraPose(vec3(0, 0, 1), vec3(1, 0, 0), vec3(0, 1, 0), focal[j])
        np.testing.assert_allclose(images[j], project_points(moved, pose)[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("regime", list(Regime))
def test_verdicts_match_jacobian_rank(regime):
    wrong, claims = [], 0
    for p, s, k in rank_cells(regime):
        v = dof_verdict(regime, p, s, k)
        nulls = {null_dimension(regime, p, s, k, seed) for seed in RANK_SEEDS}
        assert len(nulls) == 1, f"seeds disagree at {(p, s, k)}: {nulls}"
        (n,) = nulls
        assert n >= gauge(regime, s, k)
        if v.feasible != (n == gauge(regime, s, k)):
            wrong.append((p, s, k, n, v.describe()))
        # a claimed verdict is backed, not proven: its scenes keep extra null directions
        claims += v.by_claim and n > gauge(regime, s, k)
    assert not wrong, f"verdicts the Jacobian's null space contradicts: {wrong}"
    if regime is Regime.PERSPECTIVE_UNCALIBRATED:
        assert claims == 5  # p = 7 ... 11 at k = 3
