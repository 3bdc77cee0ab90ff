"""Deformation flow, verification campaigns, degenerations and the
exploratory conjecture probes."""

import io
import json
import math
import os

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
from trunctet import cli, convert, domain, extremal, tetra, volume
from trunctet.convert import angles_to_lengths, angles_to_lengths_batch, chart_angles
from trunctet.domain import ALL_PERMUTATIONS, acute_mask, compose, in_O_mask, permute
from trunctet.errors import DomainError, InvalidArgumentError, SamplingError
from trunctet.extremal import (
    _FLOW_BLOCK,
    CSV_HEADER,
    TERMINATED_BOUNDARY,
    TERMINATED_BUDGET,
    TERMINATED_REGULAR,
    TIE_TOL,
    VerificationReport,
    _flow_schedule,
)
from trunctet.tetra import _BATCH, _GROW_CAP, rejection_sample

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


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


def dirichlet(theta_sum):
    return lambda rng, size: rng.dirichlet(np.ones(6), size=size) * theta_sum


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
        expected = row_by_row(74, 150, dirichlet(3.0), in_O_mask, lambda t: True)
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

    def record_batch(self, margins, passed, witness):
        # one sample at a time, a record made for each
        for i, (margin, ok) in enumerate(zip(margins.tolist(), passed.tolist())):
            self.record(witness(i), margin, ok)


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


def per_row_rejection_sample(rng, n, propose, accept, budget=None):
    """The rejection loop as written before it returned arrays: the items of
    each batch's iterator appended one at a time, up to the n-th."""
    if budget is None:
        budget = max(1_000_000, 20_000 * n)
    out = []
    draws = 0
    while len(out) < n:
        if draws >= budget:
            raise SamplingError(
                f"rejection budget {budget} exhausted after {len(out)}/{n} accepted"
            )
        batch = propose(rng, _BATCH)
        draws += _BATCH
        for item in accept(batch):
            out.append(item)
            if len(out) == n:
                break
    return out


def per_row_T_ell(rng, ell, n, budget=None):
    """sample_T_ell (no volume floor) as written before the array sampler:
    per-row items, then one volume call and one record per row."""

    def accept(batch):
        angles = batch[in_O_mask(batch)]
        lengths = angles_to_lengths_batch(angles)
        ok = np.all(lengths >= ell, axis=1)
        return zip(angles[ok], lengths[ok])

    accepted = per_row_rejection_sample(rng, n, uniform(math.pi), accept, budget)
    vols = ushijima_volume(np.array([a for a, _ in accepted]).reshape(-1, 6)).tolist()
    return [Tetrahedron(tuple(a), tuple(l), v) for (a, l), v in zip(accepted, vols)]


def per_row_fixed_angle_sum_tets(theta_sum, n, seed):
    # the tetrahedra of verify_fixed_angle_sum as written before the array
    # campaign: per-row items, then one conversion and volume call
    rows = per_row_rejection_sample(
        np.random.default_rng(seed), n, dirichlet(theta_sum),
        lambda batch: iter(batch[in_O_mask(batch)]),
    )
    angles = np.array(rows, dtype=float).reshape(-1, 6)
    lengths = angles_to_lengths_batch(angles)
    for row in np.flatnonzero(np.isnan(lengths).any(axis=1)):
        lengths[row] = angles_to_lengths(angles[row])
    vols = ushijima_volume(angles).tolist()
    return [Tetrahedron(tuple(a), tuple(l), v) for a, l, v in zip(angles, lengths, vols)]


def per_sample_report(report, tets):
    """The report's campaign recorded one sample at a time from ``tets``."""
    expected = AppendSortTruncateReport(
        report.campaign, report.seed, dict(report.params), notes=list(report.notes)
    )
    reference, tol = report.params["reference_volume"], report.params["tol"]
    for tet in tets:
        margin = reference - tet.volume
        expected.record(tet, margin, margin >= -tol)
    return expected


def campaign_json(report):
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True)


class TestArrayCampaignsMatchPerRow:
    """The array campaigns give the JSON of the per-row loop and the
    per-sample ``record`` they replaced."""

    @pytest.mark.parametrize(
        "ell, n",
        [(ell, n) for ell in (0.3, L0, 1.2) for n in (0, 1, 5, 6)] + [(0.3, 2000), (L0, 2000)],
    )
    def test_verify_theorem(self, ell, n):
        for seed in (0, 81, 82) if n < 2000 else (83,):
            got = verify_theorem(ell, n, seed=seed)
            tets = per_row_T_ell(np.random.default_rng(seed), ell, n)
            assert campaign_json(got) == campaign_json(per_sample_report(got, tets))

    @pytest.mark.parametrize("n", [0, 1, 5, 6, 2000])
    @pytest.mark.parametrize("theta_sum", [1.5, 3.0])
    def test_verify_fixed_angle_sum(self, theta_sum, n):
        for seed in (0, 84, 85) if n < 2000 else (86,):
            got = verify_fixed_angle_sum(theta_sum, n, seed=seed)
            tets = per_row_fixed_angle_sum_tets(theta_sum, n, seed)
            assert campaign_json(got) == campaign_json(per_sample_report(got, tets))

    def test_samplers_keep_their_streams(self):
        for seed, n in ((87, 0), (87, 1), (88, 300)):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_T_ell(rng, 0.3, n)
            assert got == per_row_T_ell(ref_rng, 0.3, n)
            # the caller's generator is left where the per-row loop left it
            assert rng.random() == ref_rng.random()

    def test_budget_message(self):
        # l = 0.8 accepts a few rows per batch, so the budget runs out with
        # some of them in
        with pytest.raises(SamplingError) as expected:
            per_row_T_ell(np.random.default_rng(89), 0.8, 50, budget=3 * _BATCH)
        assert "exhausted after 0/" not in str(expected.value)
        with pytest.raises(SamplingError) as got:
            sample_T_ell(np.random.default_rng(89), 0.8, 50, budget=3 * _BATCH)
        assert str(got.value) == str(expected.value)


def two_pipeline_fixed_angle_sum(theta_sum, n, seed, tol=extremal.MARGIN_TOL):
    """verify_fixed_angle_sum as written before it drew through
    ``tetra._sample_rows``: its own rejection loop keeping the rows in the
    polytope, then one batch conversion (a NaN row raised through the scalar
    one) and one volume call."""
    reference = tetra.regular_from_angle(theta_sum / 6.0).volume
    params = {"theta_sum": theta_sum, "n": n, "tol": tol, "reference_volume": reference}
    report = VerificationReport("fixed_angle_sum", seed, params)
    (angles,) = rejection_sample(seed, n, dirichlet(theta_sum), lambda batch: (
        np.take(batch, domain._in_O_index(batch), axis=0),))
    lengths = angles_to_lengths_batch(angles)
    if np.isnan(lengths).any():
        angles_to_lengths(angles[np.isnan(lengths).any(axis=1).argmax()])
    vols = ushijima_volume(angles)
    margins = reference - vols
    report.record_batch(margins, margins >= -tol, lambda i: Tetrahedron(
        tuple(angles[i].tolist()), tuple(lengths[i].tolist()), float(vols[i])))
    return report


class TestOneCampaignPipeline:
    """Both campaigns draw through ``tetra._sample_rows``: anglesum gives the
    reports of its former pipeline of its own, and a row the batch
    conversion gives NaN lengths is rejected by either campaign."""

    @pytest.mark.parametrize("theta_sum", [0.5, 1.5, 3.0, 5.0, 5.8])
    def test_anglesum_reports_of_its_former_pipeline(self, theta_sum):
        for seed in (0, 1, 7):
            for n in (0, 1, 250):
                got = verify_fixed_angle_sum(theta_sum, n, seed)
                expected = two_pipeline_fixed_angle_sum(theta_sum, n, seed)
                assert campaign_json(got) == campaign_json(expected)

    def test_each_campaign_makes_one_draw(self, monkeypatch):
        draws = []
        original = tetra._sample_rows

        def counting(*args, **kwargs):
            draws.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(tetra, "_sample_rows", counting)
        verify_theorem(0.3, 20, seed=1)
        verify_fixed_angle_sum(3.0, 20, seed=1)
        assert [sorted(kwargs) for kwargs in draws] == [["ell"], ["ell", "propose"]]

    @pytest.mark.parametrize("campaign", [
        lambda n: verify_theorem(0.3, n, seed=4),
        lambda n: verify_fixed_angle_sum(3.0, n, seed=4),
    ], ids=["theorem", "anglesum"])
    def test_a_row_without_lengths_is_rejected(self, monkeypatch, campaign):
        # the rows each campaign evaluates, from its one volume call
        evaluated = []
        original_volume = volume.ushijima_volume

        def spy(angles):
            evaluated.append(np.array(angles))
            return original_volume(angles)

        monkeypatch.setattr(volume, "ushijima_volume", spy)
        campaign(31)
        rows = evaluated.pop()
        # the conversion now gives NaN lengths on the first accepted row
        original_batch = convert.angles_to_lengths_batch

        def nan_on_first(batch):
            lengths = original_batch(batch)
            lengths[(batch == rows[0]).all(axis=1)] = np.nan
            return lengths

        monkeypatch.setattr(convert, "angles_to_lengths_batch", nan_on_first)
        report = campaign(30)
        assert report.samples == 30
        assert np.array_equal(evaluated.pop(), rows[1:])


def t_ell_accept_mask(batch, ell):
    # the rows of a batch in the polytope with all lengths >= ell
    inside = in_O_mask(batch)
    inside[inside] = np.all(angles_to_lengths_batch(batch[inside]) >= ell, axis=1)
    return inside


def t_ell_accept(ell):
    # the rows of a batch in the polytope with all lengths >= ell, as arrays
    return lambda batch: (batch[t_ell_accept_mask(batch, ell)],)


def drawn_blocks(monkeypatch, call):
    """The sizes of the blocks the samplers draw while ``call()`` runs."""
    sizes = []
    original = tetra.rejection_sample

    def counting(rng, n, propose, accept, budget=None):
        def counted(rng, size):
            sizes.append(size)
            return propose(rng, size)
        return original(rng, n, counted, accept, budget)

    with monkeypatch.context() as patch:
        patch.setattr(tetra, "rejection_sample", counting)
        call()
    return sizes


class TestBlockSchedule:
    """A sampler that owns its generator (an int seed) draws blocks sized to
    the rows still wanted; a caller's Generator is drawn in blocks of
    ``_BATCH`` rows."""

    @staticmethod
    def sizes(rng, budget, n=1):
        # the block sizes drawn until a budget runs out with nothing accepted
        sizes = []

        def propose(rng, size):
            sizes.append(size)
            return rng.random((size, 6))

        message = f"^rejection budget {budget} exhausted after 0/{n}"
        with pytest.raises(SamplingError, match=message):
            rejection_sample(rng, n, propose, lambda batch: (batch[:0],), budget)
        return sizes

    def test_a_seed_draws_blocks_doubling_to_the_cap(self):
        # ceil(1.25 n) rows first, then 1, 2 and 4 times _BATCH. 13 * _BATCH - 5
        # rounds up to 13 * _BATCH, and the last block is clipped to what is left
        assert _GROW_CAP == 4 * _BATCH
        sizes = self.sizes(5, 13 * _BATCH - 5)
        assert sizes == [2, _BATCH, 2 * _BATCH, _GROW_CAP, _GROW_CAP, 2 * _BATCH - 2]
        assert self.sizes(5, 30 * _BATCH)[:7] == [2, _BATCH, 2 * _BATCH] + [_GROW_CAP] * 4
        # from n = 3277 the first block is capped at _BATCH
        assert self.sizes(5, 30 * _BATCH, n=4000)[:4] == [_BATCH, 2 * _BATCH] + [_GROW_CAP] * 2

    def test_a_generator_draws_blocks_of_the_batch(self):
        assert self.sizes(np.random.default_rng(5), 13 * _BATCH - 5) == [_BATCH] * 13
        assert self.sizes(np.random.default_rng(5), 3 * _BATCH, n=4000) == [_BATCH] * 3

    def test_largest_block_stays_small(self):
        # (16384, 6) proposals take 768 KiB. Campaign peak RSS rose 0.45 MB
        # at a cap of 16384 rows, 2.0 MB at 32768 and 4.4 MB at 65536, and the
        # two larger caps were also slower
        assert _GROW_CAP * 6 * 8 <= 1 << 20

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_an_anglesum_seed_draws_one_block(self, monkeypatch, seed):
        # every proposal at angle sum 3 is in the polytope: ceil(1.25 * 250)
        blocks = drawn_blocks(monkeypatch, lambda: verify_fixed_angle_sum(3.0, 250, seed))
        assert blocks == [313]

    def test_blocks_follow_the_acceptance_up_to_the_cap(self, monkeypatch):
        # at l0 about 0.15% of the proposals are in: the blocks after the
        # first acceptances reach the cap and none passes it
        for seed in range(3):
            blocks = drawn_blocks(monkeypatch, lambda: verify_theorem(L0, 250, seed))
            assert blocks[0] == 313
            assert max(blocks) == _GROW_CAP
        for ell, n in ((0.1, 250), (0.3, 7), (L0, 1)):
            blocks = drawn_blocks(monkeypatch, lambda: verify_theorem(ell, n, 4))
            assert max(blocks) <= _GROW_CAP

    def test_a_seed_draws_fewer_rows_than_doubling_blocks(self, monkeypatch):
        # the blocks of 4096, 8192, then 16384 rows drawn before: the shortest
        # run of them that holds the 250th accepted proposal. Over seeds 0-19
        # the sized blocks draw 164634.2 rows on average against 172032
        old, new = [], []
        for seed in range(20):
            blocks = drawn_blocks(monkeypatch, lambda: verify_theorem(L0, 250, seed))
            rows = np.random.default_rng(seed).random((sum(blocks), 6))
            rows *= math.pi
            position = np.flatnonzero(t_ell_accept_mask(rows, L0))[249] + 1
            doubling = np.cumsum([_BATCH, 2 * _BATCH] + [_GROW_CAP] * 20)
            old.append(int(doubling[np.searchsorted(doubling, position)]))
            new.append(sum(blocks))
        assert (np.mean(new), np.mean(old)) == (164634.2, 172032.0)

    @pytest.mark.parametrize("n", [0, 1, 5, 300])
    def test_a_seed_gives_the_rows_of_its_generator(self, n):
        for seed in (0, 90):
            got = sample_T_ell(seed, L0, n)
            assert got == sample_T_ell(np.random.default_rng(seed), L0, n)
            rows = sample_O_batch(seed, n, "acute")
            assert np.array_equal(rows, sample_O_batch(np.random.default_rng(seed), n, "acute"))

    @pytest.mark.parametrize("budget", [3 * _BATCH, 3 * _BATCH + 1])
    def test_budget_message_of_a_seed(self, budget):
        # the seed's blocks (63, 4096, then the 8129 or 12225 rows left of the
        # rounded budget) draw the rows of the per-block loop, so the same
        # rows are in
        def per_row_accept(batch):
            return iter(t_ell_accept(0.8)(batch)[0])

        with pytest.raises(SamplingError) as expected:
            per_row_rejection_sample(
                np.random.default_rng(89), 50, uniform(math.pi), per_row_accept, budget)
        assert "exhausted after 0/" not in str(expected.value)
        with pytest.raises(SamplingError) as got:
            rejection_sample(89, 50, uniform(math.pi), t_ell_accept(0.8), budget)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", None])
    def test_seeds_must_be_nonnegative_integers(self, seed):
        with pytest.raises(InvalidArgumentError, match="^seed must be a nonnegative integer"):
            rejection_sample(seed, 1, uniform(math.pi), t_ell_accept(0.3))


class TestRecordBatch:
    @pytest.mark.parametrize("max_witnesses", [0, 1, 3, 5])
    @pytest.mark.parametrize("sizes", [(13,), (1,) * 13, (2, 5, 6), (6, 0, 7), (4, 4, 4, 1)])
    def test_ties_inside_and_across_batches(self, sizes, max_witnesses):
        # ties inside a batch, across batches, with a held witness, and
        # between 0.0 and -0.0; the sample index stands for the tetrahedron
        margins = [0.5, 0.1, 0.1, 0.3, 0.1, 0.0, 0.1, -0.0, 0.1, 0.3, 0.0, 0.1, math.inf]
        got = VerificationReport("t", 0, {}, max_witnesses=max_witnesses)
        expected = AppendSortTruncateReport("t", 0, {}, max_witnesses=max_witnesses)
        first = 0
        for size in sizes:
            batch = margins[first:first + size]
            made = []

            def witness(i, first=first, made=made):
                made.append(first + i)
                return first + i

            got.record_batch(np.array(batch), np.array(batch) >= 0.1, witness)
            for k, margin in enumerate(batch, first):
                expected.record(k, margin, margin >= 0.1)
            # records are made only for the samples that enter the list
            assert len(made) <= max_witnesses
            assert set(made) <= {k for _, k in got.witnesses}
            assert got.witnesses == expected.witnesses
            assert (got.samples, got.passes) == (expected.samples, expected.passes)
            assert got.worst_margin == expected.worst_margin
            assert math.copysign(1.0, got.worst_margin) == math.copysign(
                1.0, expected.worst_margin)
            first += size
        assert got.samples == len(margins)

    @pytest.mark.parametrize("margins, passed", [([1.0], [True, True]), ([1.0, 2.0], [True]),
                                                 ([], [False])])
    def test_margins_and_flags_of_different_lengths_raise(self, margins, passed):
        report = VerificationReport("t", 0, {})
        with pytest.raises(InvalidArgumentError, match="margins but"):
            report.record_batch(margins, passed, lambda i: i)
        assert (report.samples, report.passes, report.witnesses) == (0, 0, [])

    def test_empty_batch_changes_nothing(self):
        report = VerificationReport("t", 0, {})
        report.record_batch(np.empty(0), np.empty(0, dtype=bool), None)
        assert (report.samples, report.passes, report.witnesses) == (0, 0, [])
        assert report.worst_margin == math.inf


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

    def test_records_are_made_on_demand(self, monkeypatch):
        start = floor_start(64)
        argv = ["flow", "--lengths", ",".join(map(repr, start.lengths)), "--ell", "0.3"]
        built = []
        init = Tetrahedron.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tetrahedron, "__init__", counting_init)
        traj = deformation_flow(start, 0.3)
        assert built == []
        points = traj.points
        assert len(built) == len(points) == len(traj.t) > 100
        assert traj.points is points and len(built) == len(points)
        # the start's record is rebuilt, equal to it
        assert points[0] == (0.0, start) and points[0][1] is not start
        lines = [CSV_HEADER]
        for t, tet in points:
            lines.append(",".join(f"{x:.17g}" for x in (t, *tet.lengths, tet.volume)))
        assert traj.to_csv() == "\n".join(lines) + "\n"
        # the CSV of the command line builds the start's record alone
        built.clear()
        out = io.StringIO()
        assert cli.main(argv, out=out) == 0
        assert built == [1]
        assert out.getvalue() == traj.to_csv()
        built.clear()
        assert cli.main(argv + ["--json"], out=io.StringIO()) == 0
        assert len(built) == 1 + len(points)

    def test_rejects_bad_inputs(self):
        tet = regular_from_length(0.7)
        with pytest.raises(InvalidArgumentError):
            deformation_flow(tet, 0.5, dt=0.0)
        with pytest.raises(DomainError):
            deformation_flow(tet, 2.0)
        # dt <= 0 is False for NaN: non-finite values are rejected first
        for dt in (math.nan, math.inf):
            with pytest.raises(InvalidArgumentError, match="dt must be finite"):
                deformation_flow(tet, 0.5, dt=dt)
        for ell_floor in (math.nan, -math.inf):
            with pytest.raises(InvalidArgumentError, match="ell_floor must be finite"):
                deformation_flow(tet, ell_floor)


def reference_flow(start, ell_floor, dt=1e-3, max_steps=200_000):
    """The per-step loop the batch flow replaced: one chart test and one
    scalar volume per step. Returns the (t, Tetrahedron) pairs and the
    termination reason."""
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
    return tuple(points), reason


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
    # evaluation. ``expected`` is a reference_flow result
    points, reason = expected
    assert got.reason == reason
    assert len(got.points) == len(points)
    for (t_got, g), (t_exp, e) in zip(got.points, points):
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
            reasons.append(expected[1])
        assert reasons == ["regular", "regular", "boundary", "boundary"]
        # the step that finds the boundary counts towards max_steps
        boundary_step = len(expected[0])
        for max_steps, reason in ((boundary_step, "boundary"), (boundary_step - 1, "budget")):
            got = deformation_flow(starts[130], 0.3, dt=1e-2, max_steps=max_steps)
            assert_same_flow(got, reference_flow(starts[130], 0.3, 1e-2, max_steps))
            assert got.reason == reason

    def test_max_steps_cuts(self):
        # at dt = 3e-4 this start takes 2119 steps, three blocks, and ends
        # segments at steps 849, 1420, 1691, 2041 and 2119, inside blocks
        start = criterion_9_starts(4)[3]
        dt = 3e-4
        full = reference_flow(start, 0.3, dt=dt)
        full_points, full_reason = full
        steps = len(full_points) - 1
        assert full_reason == "regular"
        assert steps > 2 * _FLOW_BLOCK
        counts = [tet.maximal_edge_count() for _, tet in full_points]
        ends = [i for i in range(1, len(counts)) if counts[i] > counts[i - 1]]
        assert any(end % _FLOW_BLOCK for end in ends[:-1])
        block_ends = range(_FLOW_BLOCK, steps + 1, _FLOW_BLOCK)
        cuts = {0, 1} | {c + d for c in (*block_ends, *ends) for d in (-1, 0, 1)}
        # the per-step loop cut after max_steps steps is its first max_steps
        # steps, ended by the budget
        cut = _FLOW_BLOCK + 1
        expected_points, expected_reason = reference_flow(start, 0.3, dt, max_steps=cut)
        assert expected_points == full_points[: cut + 1]
        assert expected_reason == "budget"
        for max_steps in sorted(cuts):
            got = deformation_flow(start, 0.3, dt=dt, max_steps=max_steps)
            if max_steps > steps:
                assert_same_flow(got, full)
            else:
                assert_same_flow(got, (full_points[: max_steps + 1], "budget"))

    def test_volumes_are_the_rows_evaluated_alone(self):
        # a row's batch volume does not depend on its block or its offset
        starts = sample_T_ell(np.random.default_rng(3), 0.3, 131)
        flows = [deformation_flow(starts[i], 0.3, dt=1e-2) for i in (68, 130)]
        flows.append(deformation_flow(criterion_9_starts(2)[1], 0.3))
        assert [flow.reason for flow in flows] == ["boundary", "boundary", "regular"]
        for flow in flows:
            angles = np.array([tet.angles for _, tet in flow.points[1:]])
            alone = [ushijima_volume(row[None, :])[0] for row in angles]
            assert [tet.volume for _, tet in flow.points[1:]] == alone


def tiled_schedule(current, dt, max_steps):
    """The schedule the levels replaced: the (n, 6) length rows of the first
    n <= max_steps steps, each segment tiled from the current lengths with
    its tied set masked to the level, and the t increment of each step."""
    current = np.array(current, dtype=float)
    rows, increments = [np.empty((0, 6))], [np.empty(0)]
    while max_steps > 0:
        lmax = float(current.max())
        lmin = float(current.min())
        if lmax - lmin < TIE_TOL:
            break
        tied = current >= lmax - TIE_TOL
        second = float(current[~tied].max())
        seg_len = lmax - second
        if seg_len > TIE_TOL:
            n_sub = max(1, math.ceil(seg_len / dt))
            sub = np.arange(1, min(n_sub, max_steps) + 1)
            max_steps -= len(sub)
            shift = np.minimum(sub * dt, seg_len)
            segment = np.tile(current, (len(sub), 1))
            segment[:, tied] = np.where(sub == n_sub, second, lmax - shift)[:, None]
            rows.append(segment)
            increments.append(shift - np.minimum((sub - 1) * dt, seg_len))
        current[tied] = second
    return np.concatenate(rows), np.concatenate(increments)


class TestFlowSchedule:
    @staticmethod
    def starts():
        # criterion-9 and random starts, and random starts with one length
        # moved to 0, 1e-10, 5e-10, 2e-9 or 1e-3 from the longest or the
        # shortest, above and below it: ties inside and outside TIE_TOL
        starts = [tet.lengths for tet in criterion_9_starts(4)]
        random = [tet.lengths for tet in sample_T_ell(np.random.default_rng(21), 0.3, 24)]
        starts += random
        for k, lengths in enumerate(random):
            lengths = np.array(lengths)
            for to in (lengths.argmax(), lengths.argmin()):
                moved = (to + 1 + k % 5) % 6
                for offset in (0.0, 1e-10, 5e-10, 2e-9, 1e-3):
                    for sign in (-1.0, 1.0):
                        near = lengths.copy()
                        near[moved] = lengths[to] + sign * offset
                        starts.append(tuple(near.tolist()))
        return starts

    @pytest.mark.parametrize("dt", [1e-3, 5e-2, 0.3])
    def test_levels_give_the_tiled_rows(self, dt):
        for lengths in self.starts():
            for max_steps in (0, 1, 37, 200_000):
                rows, increments = tiled_schedule(lengths, dt, max_steps)
                levels, times = _flow_schedule(lengths, dt, max_steps)
                assert np.array_equal(np.minimum(lengths, levels[:, None]), rows)
                assert np.array_equal(times, np.cumsum(np.concatenate([[0.0], increments])))
                assert times.dtype == levels.dtype == float

    def test_no_step_raises_an_edge(self):
        # below TIE_TOL a step is shorter than the gap inside the tied set;
        # capping at the level leaves the lower tied edge where it starts
        start = Tetrahedron.from_lengths((1.0, 1.0 - 5e-10, 0.8, 0.9, 0.7, 0.85))
        traj = deformation_flow(start, 0.3, dt=1e-12, max_steps=2)
        assert traj.lengths[:, 1].tolist() == [1.0 - 5e-10] * 3
        assert traj.lengths[1:, 0].tolist() == [1.0 - 1e-12, 1.0 - 2e-12]

    def test_a_tiny_dt_runs_to_the_budget(self):
        # seg_len / dt overflows to inf at dt = 1e-320; the step count is
        # clipped to the budget before it is rounded up
        start = Tetrahedron.from_lengths((0.9, 0.8, 0.7, 0.9, 0.8, 0.7))
        for dt in (1e-320, 1e-300):
            traj = deformation_flow(start, 0.3, dt=dt, max_steps=3)
            assert traj.reason == "budget"
            assert len(traj.t) == 4
            assert traj.t.tolist() == [0.0, dt, 2 * dt, 3 * dt]


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

    @pytest.mark.parametrize("ell, tol, match", [
        (math.nan, 1e-9, "ell must be finite"),
        (math.inf, 1e-9, "ell must be finite"),
        (0.3, math.nan, "tol must be finite and nonnegative"),
        (0.3, math.inf, "tol must be finite and nonnegative"),
        (0.3, -1e-9, "tol must be finite and nonnegative"),
    ])
    def test_rejects_non_finite_arguments(self, ell, tol, match):
        with pytest.raises(InvalidArgumentError, match=match):
            verify_theorem(ell, 3, seed=72, tol=tol)

    @pytest.mark.parametrize("ell, floor", [(math.nan, None), (math.inf, None), (0.3, math.nan)])
    def test_T_ell_rejects_non_finite_arguments_before_any_draw(self, ell, floor):
        rng = np.random.default_rng(72)
        state = rng.bit_generator.state
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            sample_T_ell(rng, ell, 1, require_volume_floor=floor)
        assert rng.bit_generator.state == state

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

    @pytest.mark.parametrize("theta_sum, tol, match", [
        (math.nan, 1e-9, "theta_sum must be finite"),
        (math.pi, math.inf, "tol must be finite and nonnegative"),
        (math.pi, -1.0, "tol must be finite and nonnegative"),
    ])
    def test_rejects_non_finite_arguments(self, theta_sum, tol, match):
        with pytest.raises(InvalidArgumentError, match=match):
            verify_fixed_angle_sum(theta_sum, 3, seed=77, tol=tol)


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
        nonempty, witness = conjecture_prima2_test(tet, tet.min_length)
        assert nonempty
        assert witness.min_length >= tet.min_length - 1e-9

    def test_prima2_rejects_regular_input(self):
        with pytest.raises(DomainError):
            conjecture_prima2_test(regular_from_length(0.8), 0.8)


def s6_start():
    """The family (x, x, y, y, y, x) at angle sum s = 6 with 2x + y = pi - 1e-5,
    so that vertices 1-3 are near-ideal, moved off its symmetry by
    3e-4 (1, -1, 0, 0, 0, -1). Every edge meets a near-ideal vertex."""
    x = math.pi - 1e-5 - 2.0
    y = 2.0 - x
    return Tetrahedron.from_angles(
        np.array([x, x, y, y, y, x]) + 3e-4 * np.array([1, -1, 0, 0, 0, -1]))


class TestPrima2SubOrbits:
    def test_coset_table(self):
        rows = domain._coset_rows()
        assert [r.shape for r in rows] == [
            (1, 24), (2, 12), (9, 8), (16, 6), (42, 4), (32, 3), (108, 2)]
        assert rows[0][0].tolist() == list(range(24))
        assert all(r.tolist() == sorted(r.tolist()) for r in rows)
        table = {tuple(row) for r in rows for row in r.tolist()}
        assert len(table) == 210
        # the coset holding the identity (index 0) is the subgroup itself
        subgroups = [row for row in table if 0 in row]
        assert len(subgroups) + 1 == 30  # with the trivial subgroup
        index = ALL_PERMUTATIONS.index
        for group in subgroups:
            elements = [ALL_PERMUTATIONS[i] for i in group]
            assert {index(compose(a, b)) for a in elements for b in elements} == set(group)
            for side in (lambda g, h: compose(g, h), lambda g, h: compose(h, g)):
                cosets = {tuple(sorted(index(side(g, h)) for h in elements))
                          for g in ALL_PERMUTATIONS}
                assert cosets <= table
                assert sorted(i for c in cosets for i in c) == list(range(24))
        assert sum(24 // len(group) for group in subgroups) == 210

    def test_s6_start_hits_above_its_min_length(self, monkeypatch):
        pytest.importorskip("mpmath")
        monkeypatch.syspath_prepend(os.path.abspath(BENCH))
        import oracle

        tet = s6_start()
        assert tet.min_length == pytest.approx(4.498, abs=1e-3)
        nonempty, witness = conjecture_prima2_test(tet, 5.0)
        assert nonempty
        # the average over the six permutations fixing vertex 4
        x, y = witness.angles[0], witness.angles[2]
        assert witness.angles == (x, x, y, y, y, x)
        assert witness.min_length == pytest.approx(5.0316, abs=1e-4)
        exact = oracle.lengths_to_angles(witness.lengths)
        assert max(abs(float(e) - a) for e, a in zip(exact, witness.angles)) <= 1e-9

    def test_prima_fails_above_three_half_pi(self):
        # the regular tetrahedron with the mean angle 1.0 has edge 2.59,
        # against the start's min length 4.498
        tet = s6_start()
        holds, margin = conjecture_prima_test(tet, tet.min_length)
        assert sum(tet.angles) > 1.5 * math.pi
        assert not holds and margin <= -1.5

    def test_decisions_match_prima(self):
        # the first candidate, the orbit barycenter, is prima's regular
        # tetrahedron; on these starts no other sub-orbit point beats it
        decisions = []
        for angles in sample_O_batch(np.random.default_rng(82), 30, "acute"):
            tet = Tetrahedron.from_angles(angles)
            orbit = np.array([permute(sigma, tet.angles) for sigma in ALL_PERMUTATIONS])
            for ell in (0.2, tet.min_length, tet.min_length + 0.02, tet.max_length, 5.0):
                nonempty, witness = conjecture_prima2_test(tet, ell)
                assert nonempty == conjecture_prima_test(tet, ell)[0]
                # a hit is the barycenter, bit for bit
                barycenter = Tetrahedron.from_angles(orbit.mean(axis=0))
                assert witness == (barycenter if nonempty else None)
                decisions.append(nonempty)
        for tet in sample_T_ell(84, 0.2, 200):
            nonempty, _ = conjecture_prima2_test(tet, tet.min_length)
            assert nonempty == conjecture_prima_test(tet, tet.min_length)[0]
            decisions.append(nonempty)
        assert True in decisions and False in decisions


#: each count argument, a call passing it, and its smallest valid value
COUNT_ARGUMENTS = {
    "n": (lambda n: sample_O_batch(np.random.default_rng(0), n), 0),
    "max_steps": (lambda n: deformation_flow(floor_start(83), 0.3, max_steps=n), 0),
    "steps": (degeneration_path, 2),
}


@pytest.mark.parametrize("name", sorted(COUNT_ARGUMENTS))
def test_counts_must_be_nonnegative_integers(name):
    call, smallest = COUNT_ARGUMENTS[name]
    for value in (2.5, -1, "3"):
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be a nonnegative integer"):
            call(value)
    call(smallest)


#: each seeded campaign, as a call passing the seed
SEEDED = {
    "verify_theorem": lambda seed: verify_theorem(0.3, 2, seed),
    "verify_fixed_angle_sum": lambda seed: verify_fixed_angle_sum(3.0, 2, seed),
}


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seeds_must_be_nonnegative_integers(name):
    for value in (2.5, -1, "3"):
        with pytest.raises(InvalidArgumentError, match="^seed must be a nonnegative integer"):
            SEEDED[name](value)
    SEEDED[name](0)
