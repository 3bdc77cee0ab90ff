"""Deformation flow, verification campaigns, degenerations and the
exploratory conjecture probes."""

import io
import math

import numpy as np
import pytest

from trunctet import (
    L0,
    Tetrahedron,
    conjecture_prima2_test,
    conjecture_prima_test,
    deformation_flow,
    degeneration_path,
    regular_from_length,
    regular_volume_l0,
    regular_volume_scan,
    sample_O_batch,
    sample_T_ell,
    truncation_area,
    ushijima_volume,
    verify_fixed_angle_sum,
    verify_theorem,
)
from trunctet import cli, extremal
from trunctet.convert import chart_angles
from trunctet.domain import acute_mask, in_O_mask
from trunctet.errors import DomainError, InvalidArgumentError, SamplingError
from trunctet.extremal import (
    _FLOW_BLOCK,
    CSV_HEADER,
    TERMINATED_BOUNDARY,
    TERMINATED_BUDGET,
    TERMINATED_REGULAR,
    TIE_TOL,
    Trajectory,
    VerificationReport,
)
from trunctet.tetra import _BATCH


def floor_start(seed, ell=0.3):
    """A non-regular tetrahedron of T_ell with volume above the canonical
    regular volume (the flow's monotonicity hypothesis)."""
    rng = np.random.default_rng(seed)
    floor = regular_volume_l0()
    while True:
        (tet,) = sample_T_ell(rng, ell, 1, require_volume_floor=floor)
        if not tet.is_regular():
            return tet


def row_by_row(seed, n, propose, mask, keep):
    """Reference for the samplers: the same proposals and masks, each masked
    row made by ``Tetrahedron.from_angles`` and kept while ``keep`` holds."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        batch = propose(rng, _BATCH)
        for a in batch[mask(batch)]:
            try:
                tet = Tetrahedron.from_angles(a)
            except DomainError:
                continue
            if keep(tet):
                out.append(tet)
                if len(out) == n:
                    break
    return out


def uniform(high):
    return lambda rng, size: rng.uniform(0.0, high, size=(size, 6))


def assert_same_tetrahedra(got, expected):
    # identical angle rows and lengths; volumes from the batch evaluation
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.angles == e.angles
        assert g.lengths == e.lengths
        assert abs(g.volume - e.volume) < 1e-13


def assert_same_report(report, tets, reference):
    margins = sorted(((reference - tet.volume, tet) for tet in tets), key=lambda m: m[0])
    assert report.samples == report.passes == len(tets)
    assert_same_tetrahedra([t for _, t in report.witnesses], [t for _, t in margins[:5]])


class TestBatchVolumesMatchRowByRow:
    """The samplers evaluate volumes in batches; at fixed seeds they return
    what a row-by-row ``from_angles`` loop over the same proposals returns."""

    def test_sample_T_ell(self):
        expected = row_by_row(70, 200, uniform(math.pi), in_O_mask, lambda t: t.min_length >= 0.3)
        assert_same_tetrahedra(sample_T_ell(np.random.default_rng(70), 0.3, 200), expected)

    def test_sample_T_ell_volume_floor(self):
        floor = regular_volume_l0()
        expected = row_by_row(
            71, 4, uniform(math.pi / 2), acute_mask,
            lambda t: t.min_length >= 0.3 and t.volume >= floor,
        )
        got = sample_T_ell(np.random.default_rng(71), 0.3, 4, require_volume_floor=floor)
        assert_same_tetrahedra(got, expected)

    def test_sample_O_batch_volume_floor(self):
        floor = regular_volume_l0()
        expected = row_by_row(72, 40, uniform(math.pi / 2), acute_mask, lambda t: t.volume >= floor)
        rows = sample_O_batch(np.random.default_rng(72), 40, "volume_floor", floor=floor)
        assert [tuple(a) for a in rows] == [t.angles for t in expected]

    def test_verify_theorem(self):
        report = verify_theorem(L0, 150, seed=73)
        expected = row_by_row(73, 150, uniform(math.pi), in_O_mask, lambda t: t.min_length >= L0)
        assert_same_report(report, expected, report.params["reference_volume"])

    def test_verify_fixed_angle_sum(self):
        report = verify_fixed_angle_sum(3.0, 150, seed=74)
        expected = row_by_row(
            74, 150, lambda rng, size: rng.dirichlet(np.ones(6), size=size) * 3.0,
            in_O_mask, lambda t: True,
        )
        assert_same_report(report, expected, report.params["reference_volume"])


class AppendSortTruncateReport(VerificationReport):
    """The witness bookkeeping that ``record`` replaced: append every
    sample, stable-sort by margin, keep the first ``max_witnesses``."""

    def record(self, tet, margin, passed):
        self.samples += 1
        if passed:
            self.passes += 1
        if margin < self.worst_margin:
            self.worst_margin = margin
        self.witnesses.append((margin, tet))
        self.witnesses.sort(key=lambda item: item[0])
        del self.witnesses[self.max_witnesses:]


class TestRecordMatchesAppendSortTruncate:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "theorem", "--ell", "0.3", "--samples", "400", "--seed", "91"],
            ["verify", "theorem", "--ell", "1.0", "--samples", "200", "--seed", "92"],
            ["verify", "anglesum", "--sum", "3.0", "--samples", "400", "--seed", "93"],
        ],
    )
    def test_campaign_output_is_byte_identical(self, argv, monkeypatch):
        got = io.StringIO()
        cli.main(argv, out=got)
        monkeypatch.setattr(extremal, "VerificationReport", AppendSortTruncateReport)
        expected = io.StringIO()
        cli.main(argv, out=expected)
        assert got.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("max_witnesses", [0, 1, 3, 5])
    def test_ties_keep_arrival_order(self, max_witnesses):
        rng = np.random.default_rng(94)
        margins = (
            [0.5, 0.1, 0.1, 0.3, 0.1, 0.1, 0.1, 0.0, 0.1, 0.3, 0.0, -0.0, math.inf]
            + list(rng.integers(-3, 4, 300).astype(float))
        )
        got = VerificationReport("t", 0, {}, max_witnesses=max_witnesses)
        expected = AppendSortTruncateReport("t", 0, {}, max_witnesses=max_witnesses)
        for k, margin in enumerate(margins):
            # the sample index stands for the tetrahedron: ties are told apart
            got.record(k, margin, margin >= 0)
            expected.record(k, margin, margin >= 0)
            assert got.witnesses == expected.witnesses
        assert (got.samples, got.passes, got.worst_margin) == (
            expected.samples, expected.passes, expected.worst_margin)


class TestSampler:
    def test_respects_floor(self):
        rng = np.random.default_rng(60)
        for tet in sample_T_ell(rng, 0.4, 20):
            assert tet.min_length >= 0.4

    def test_volume_floor_option(self):
        rng = np.random.default_rng(61)
        floor = regular_volume_l0()
        for tet in sample_T_ell(rng, 0.3, 5, require_volume_floor=floor):
            assert tet.volume >= floor

    def test_starvation_raises(self):
        rng = np.random.default_rng(62)
        with pytest.raises(SamplingError):
            sample_T_ell(rng, 50.0, 1, budget=8192)

    def test_area_bound_for_short_floors(self):
        # all-lengths >= ell forces truncation area at most that of the
        # regular tetrahedron of edge length ell (for ell up to the
        # canonical length)
        rng = np.random.default_rng(63)
        for ell in (0.3, L0):
            bound = truncation_area(regular_from_length(ell).angles)
            for tet in sample_T_ell(rng, ell, 50):
                assert truncation_area(tet.angles) <= bound + 1e-9


class TestDeformationFlow:
    def test_regular_start_is_fixed(self):
        tet = regular_from_length(0.7)
        traj = deformation_flow(tet, 0.5)
        assert len(traj.points) == 1
        assert traj.reason == "regular"

    def test_monotone_volume_and_merges(self):
        tet = floor_start(64)
        traj = deformation_flow(tet, 0.3)
        assert traj.reason == "regular"
        vols = traj.volumes
        assert all(b > a for a, b in zip(vols, vols[1:]))
        counts = [t.maximal_edge_count() for _, t in traj.points]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 6

    def test_endpoint_nearly_regular(self):
        tet = floor_start(65)
        traj = deformation_flow(tet, 0.3)
        final = traj.points[-1][1]
        assert final.max_length - final.min_length < 1e-6
        assert final.volume >= tet.volume

    def test_floor_respected_throughout(self):
        tet = floor_start(66)
        traj = deformation_flow(tet, 0.3)
        for _, t in traj.points:
            assert t.min_length >= 0.3 - 1e-9
        times = [t for t, _ in traj.points]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_csv_format(self):
        traj = deformation_flow(regular_from_length(0.7), 0.5)
        text = traj.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(traj.points)
        assert len(lines[1].split(",")) == 8

    def test_rejects_bad_inputs(self):
        tet = regular_from_length(0.7)
        with pytest.raises(InvalidArgumentError):
            deformation_flow(tet, 0.5, dt=0.0)
        with pytest.raises(DomainError):
            deformation_flow(tet, 2.0)


def reference_flow(start, ell_floor, dt=1e-3, max_steps=200_000):
    """The per-step loop the batch flow replaced: one chart test and one
    scalar volume per step."""
    points = [(0.0, start)]
    current = np.asarray(start.lengths, dtype=float)
    t_global = 0.0
    reason = TERMINATED_BUDGET
    steps = 0
    while steps < max_steps:
        lmax = float(current.max())
        lmin = float(current.min())
        if lmax - lmin < TIE_TOL:
            reason = TERMINATED_REGULAR
            break
        tied = current >= lmax - TIE_TOL
        second = float(current[~tied].max())
        seg_len = lmax - second
        if seg_len <= TIE_TOL:
            current[tied] = second
            continue
        n_sub = max(1, math.ceil(seg_len / dt))
        boundary_hit = False
        for sub in range(1, n_sub + 1):
            shift = min(sub * dt, seg_len)
            cand = current.copy()
            cand[tied] = second if sub == n_sub else lmax - shift
            angles = chart_angles(cand)
            steps += 1
            if angles is None:
                reason = TERMINATED_BOUNDARY
                boundary_hit = True
                break
            t_global = t_global + (shift - min((sub - 1) * dt, seg_len))
            tet = Tetrahedron(tuple(angles), tuple(cand), ushijima_volume(angles))
            points.append((t_global, tet))
            if steps >= max_steps:
                break
        if boundary_hit:
            break
        current[tied] = second
    else:
        reason = TERMINATED_BUDGET
    return Trajectory(tuple(points), float(ell_floor), float(dt), reason)


def criterion_9_starts(n):
    """The first n starts of acceptance criterion 9."""
    rng = np.random.default_rng(109)
    floor = regular_volume_l0()
    starts = []
    while len(starts) < n:
        (tet,) = sample_T_ell(rng, 0.3, 1, require_volume_floor=floor)
        if not tet.is_regular():
            starts.append(tet)
    return starts


def assert_same_flow(got, expected):
    # reasons, steps, t, lengths and angles bitwise; volumes from the batch
    # evaluation
    assert got.reason == expected.reason
    assert len(got.points) == len(expected.points)
    for (t_got, g), (t_exp, e) in zip(got.points, expected.points):
        assert t_got == t_exp
        assert g.lengths == e.lengths
        assert g.angles == e.angles
        assert abs(g.volume - e.volume) <= 1e-13


class TestFlowMatchesPerStepLoop:
    def test_floor_starts(self):
        for start in criterion_9_starts(4):
            assert_same_flow(deformation_flow(start, 0.3), reference_flow(start, 0.3))

    def test_boundary_exits(self):
        # of this draw, starts 68 and 130 leave the length chart at dt = 1e-2
        starts = sample_T_ell(np.random.default_rng(3), 0.3, 131)
        reasons = []
        for index in (0, 1, 68, 130):
            expected = reference_flow(starts[index], 0.3, dt=1e-2)
            assert_same_flow(deformation_flow(starts[index], 0.3, dt=1e-2), expected)
            reasons.append(expected.reason)
        assert reasons == ["regular", "regular", "boundary", "boundary"]
        # the step that finds the boundary counts towards max_steps
        boundary_step = len(expected.points)
        for max_steps, reason in ((boundary_step, "boundary"), (boundary_step - 1, "budget")):
            got = deformation_flow(starts[130], 0.3, dt=1e-2, max_steps=max_steps)
            assert_same_flow(got, reference_flow(starts[130], 0.3, 1e-2, max_steps))
            assert got.reason == reason

    def test_max_steps_cuts(self):
        # the first segment of this start takes 426 steps, several blocks
        start = criterion_9_starts(2)[1]
        full = reference_flow(start, 0.3)
        counts = [tet.maximal_edge_count() for _, tet in full.points]
        segment_end = next(i for i, c in enumerate(counts) if c > counts[0])
        assert segment_end > 2 * _FLOW_BLOCK
        cuts = {
            0, 1, _FLOW_BLOCK, _FLOW_BLOCK + 1, 2 * _FLOW_BLOCK,
            segment_end // 2, segment_end, segment_end + 1,
            len(full.points) - 2, len(full.points) - 1,
        }
        for max_steps in sorted(cuts):
            expected = reference_flow(start, 0.3, max_steps=max_steps)
            assert_same_flow(deformation_flow(start, 0.3, max_steps=max_steps), expected)
            assert expected.reason == "budget"
            assert len(expected.points) == max_steps + 1
        assert_same_flow(deformation_flow(start, 0.3, max_steps=len(full.points)), full)
        assert full.reason == "regular"


class TestVerifyTheorem:
    def test_small_campaign_passes(self):
        report = verify_theorem(0.3, 200, seed=70)
        assert report.samples == 200
        assert report.failures == 0
        assert report.worst_margin >= -1e-9
        assert len(report.witnesses) == 5

    def test_conjecture_regime_flagged(self):
        report = verify_theorem(1.2, 5, seed=71)
        assert any("conjecture" in note for note in report.notes)

    def test_rejects_nonpositive_ell(self):
        with pytest.raises(DomainError):
            verify_theorem(-0.1, 1, seed=72)

    def test_json_shape(self):
        record = verify_theorem(0.3, 10, seed=73).to_json_dict()
        assert record["passes"] == 10
        assert record["failures"] == 0
        assert record["params"]["ell"] == 0.3
        assert len(record["witnesses"]) == 5


class TestVerifyFixedAngleSum:
    def test_sum_pi(self):
        report = verify_fixed_angle_sum(math.pi, 200, seed=74)
        assert report.failures == 0

    def test_sum_half_pi(self):
        report = verify_fixed_angle_sum(math.pi / 2, 200, seed=75)
        assert report.failures == 0

    def test_empty_campaign(self):
        report = verify_fixed_angle_sum(math.pi, 0, seed=76)
        assert report.samples == 0

    def test_rejects_large_sum(self):
        with pytest.raises(DomainError):
            verify_fixed_angle_sum(2.0 * math.pi, 1, seed=77)


class TestRegularScan:
    def test_strictly_decreasing(self):
        grid = np.arange(0.2, 2.01, 0.2)
        values = [v for _, v in regular_volume_scan(grid)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_canonical_point(self):
        ((_, value),) = regular_volume_scan([L0])
        assert value == pytest.approx(3.226, abs=1e-3)

    def test_singleton(self):
        assert len(regular_volume_scan([0.5])) == 1


class TestDegeneration:
    def test_endpoint_vanishes(self):
        path = degeneration_path(20)
        angles, vol = path[-1]
        assert np.allclose(angles, (0, 0, math.pi, 0, 0, math.pi), atol=1e-15)
        assert vol == pytest.approx(0.0, abs=1e-9)

    def test_positive_decreasing(self):
        values = [v for _, v in degeneration_path(10)]
        assert all(v >= 0 for v in values)
        assert all(b < a for a, b in zip(values[:-1], values[1:-1]))

    def test_two_steps(self):
        assert len(degeneration_path(2)) == 2

    def test_rejects_single_step(self):
        with pytest.raises(InvalidArgumentError):
            degeneration_path(1)


class TestConjectures:
    def test_prima_regular_margin_zero(self):
        tet = regular_from_length(0.8)
        holds, margin = conjecture_prima_test(tet, 0.8)
        assert holds
        assert margin == pytest.approx(0.0, abs=1e-9)

    def test_prima_exploratory_campaign(self):
        rng = np.random.default_rng(78)
        counter = 0
        for tet in sample_T_ell(rng, 0.2, 50):
            holds, margin = conjecture_prima_test(tet, tet.min_length)
            if not holds and margin < -1e-6:
                counter += 1
        # open conjecture: counterexamples are recorded, not asserted absent
        assert counter >= 0

    def test_prima_short_floor_regime(self):
        # for floors up to the canonical length, the angle-sum bound on
        # T_ell forces the mean angle above the regular angle of ell, so
        # the averaged tetrahedron keeps its edges above the floor
        rng = np.random.default_rng(79)
        for tet in sample_T_ell(rng, 0.3, 30):
            holds, margin = conjecture_prima_test(tet, 0.3)
            assert holds, margin

    def test_prima2_near_regular_finds_witness(self):
        base = regular_from_length(0.8).angles[0]
        angles = np.asarray([base] * 6) + 1e-3 * np.arange(6)
        tet = Tetrahedron.from_angles(angles)
        nonempty, witness = conjecture_prima2_test(tet, tet.min_length, 200, seed=80)
        assert nonempty
        assert witness.min_length >= tet.min_length - 1e-9

    def test_prima2_rejects_regular_input(self):
        with pytest.raises(DomainError):
            conjecture_prima2_test(regular_from_length(0.8), 0.8, 10, seed=81)
