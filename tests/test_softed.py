import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strokedet.errors import ConfigError
from strokedet.labels import ENDING, ONSET
from strokedet.softed import (
    SoftConfusion,
    TimedEvent,
    WindowEvalConfig,
    associate,
    evaluate_windowed,
    histogram_rows,
    membership,
    metrics_payload,
    restrict,
    soft_confusion,
    soft_metrics,
    valid_range,
)


def brute_force_max_membership(events, detections, k):
    """Exhaustive maximum total membership over one-to-one same-kind matchings.

    Independent of the package implementation: enumerates every injective
    assignment of events to detections via permutations.
    """
    events = [(t, ONSET) if isinstance(t, (int, float)) else t for t in events]
    detections = [(t, ONSET) if isinstance(t, (int, float)) else t for t in detections]

    def mu(e, d):
        if e[1] != d[1]:
            return 0.0
        return max(0.0, 1.0 - abs(e[0] - d[0]) / k)

    best = 0.0
    m = min(len(events), len(detections))
    for size in range(m + 1):
        for chosen_events in itertools.combinations(range(len(events)), size):
            for chosen_dets in itertools.permutations(range(len(detections)), size):
                total = sum(mu(events[ei], detections[di])
                            for ei, di in zip(chosen_events, chosen_dets))
                best = max(best, total)
    return best


def preferred_matching(events, detections, k):
    """Brute-force oracle for the tie-break contract.

    Enumerates every one-to-one same-kind matching, keeps those of maximum
    total membership, and returns the one whose sorted preference ranks are
    lexicographically smallest, as sorted (event, detection, membership)
    triples. Preference: higher weight, then earlier event, then earlier
    detection, then lower event and detection index. A rank list that ends
    ranks after one that goes on: a pair whose weight is below the optimum's
    tolerance still counts as reaching it, so the matching that keeps it wins.
    """
    events = sorted((float(t), kind) for t, kind in events)
    detections = sorted((float(t), kind) for t, kind in detections)
    weight = {
        (ei, di): k - abs(d[0] - e[0])
        for ei, e in enumerate(events)
        for di, d in enumerate(detections)
        if e[1] == d[1] and abs(d[0] - e[0]) < k
    }
    order = sorted(weight, key=lambda p: (-weight[p], events[p[0]][0], detections[p[1]][0], p))
    rank = {p: r for r, p in enumerate(order)}
    matchings = [
        combo
        for size in range(min(len(events), len(detections)) + 1)
        for combo in itertools.combinations(sorted(weight), size)
        if len({ei for ei, _ in combo}) == size == len({di for _, di in combo})
    ]
    best = max(sum(weight[p] for p in m) for m in matchings)
    optimal = [m for m in matchings if sum(weight[p] for p in m) >= best - 1e-9]
    chosen = min(optimal, key=lambda m: sorted(rank[p] for p in m) + [len(order)])
    return sorted((ei, di, weight[(ei, di)] / k) for ei, di in chosen)


_TIMES = st.one_of(st.integers(0, 30), st.floats(0, 30, allow_nan=False, allow_infinity=False))
_ENTITIES = st.lists(st.tuples(_TIMES, st.sampled_from([ONSET, ENDING])), max_size=4)


class TestMembership:
    def test_exact_hit(self):
        assert membership(100, 100, 15) == 1.0

    def test_one_sample_offset(self):
        assert membership(100, 101, 15) == pytest.approx(14 / 15, abs=1e-12)

    def test_beyond_tolerance(self):
        assert membership(100, 116, 15) == 0.0

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            membership(0, 0, 0)

    @given(st.integers(0, 999), st.integers(0, 999))
    def test_bounded_and_symmetric(self, te, td):
        mu = membership(te, td, 15)
        assert 0.0 <= mu <= 1.0
        assert mu == membership(td, te, 15)


class TestAssociate:
    def test_single_candidate(self):
        a = associate([100], [101], 15)
        assert len(a.pairs) == 1
        assert a.pairs[0][2] == pytest.approx(14 / 15, abs=1e-12)

    def test_equal_membership_prefers_earlier_detection(self):
        a = associate([100], [99, 101], 15)
        assert len(a.pairs) == 1
        ei, di, mu = a.pairs[0]
        assert a.detections[di].t == 99
        assert mu == pytest.approx(14 / 15, abs=1e-12)
        assert len(a.detections) - len(a.pairs) == 1

    def test_no_events(self):
        a = associate([], [500], 15)
        assert a.pairs == [] and len(a.detections) == 1

    def test_kinds_never_match(self):
        a = associate([(100, ONSET)], [(100, ENDING)], 15)
        assert a.pairs == []

    def test_achieves_brute_force_optimum_on_crossing_chain(self):
        # plain greedy would pick (10,9) first and lose 2/15 here
        events, detections = [0, 10], [9, 11]
        a = associate(events, detections, 15)
        assert a.total_membership() == pytest.approx(20 / 15, abs=1e-12)
        assert a.total_membership() == pytest.approx(
            brute_force_max_membership(events, detections, 15), abs=1e-12
        )

    @given(
        st.lists(st.integers(0, 59), max_size=4),
        st.lists(st.integers(0, 59), max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_on_random_instances(self, events, detections):
        a = associate(events, detections, 15)
        expected = brute_force_max_membership(sorted(events), sorted(detections), 15)
        assert a.total_membership() == pytest.approx(expected, abs=1e-9)

    @given(_ENTITIES, _ENTITIES)
    @settings(max_examples=300, deadline=None)
    def test_tie_break_matches_brute_force_preference(self, events, detections):
        assert associate(events, detections, 15).pairs == preferred_matching(events, detections, 15)

    @pytest.mark.parametrize("k", [0, -15])
    def test_bad_tolerance_rejected(self, k):
        with pytest.raises(ConfigError):
            associate([100], [100], k)
        with pytest.raises(ConfigError):
            soft_confusion([100], [100], 1000, k)

    def test_unknown_kind_of_timed_events_rejected(self):
        # TimedEvent does not check its kind; associate does, for every list
        with pytest.raises(ConfigError, match="'x'"):
            associate([TimedEvent(100.0, "x")], [TimedEvent(101.0, ONSET)], 15)
        with pytest.raises(ConfigError, match="'x'"):
            associate([TimedEvent(100.0, ONSET)], [TimedEvent(101.0, ONSET), TimedEvent(99.0, "x")], 15)

    def test_candidate_sets_recorded(self):
        a = associate([100], [90, 108, 200], 15)
        assert np.flatnonzero(a.weights[0]).tolist() == [0, 1]
        assert not a.weights[:, 2].any()


class TestValidRange:
    def test_standard_window(self):
        r = valid_range(1000, 15)
        assert r.start == 15 and r.stop == 985 and len(r) == 970

    def test_zero_margin_full_range(self):
        assert len(valid_range(1000, 0)) == 1000

    def test_margin_swallows_window(self):
        with pytest.raises(ConfigError):
            valid_range(30, 15)


def _restrict_by_masks(assignment, valid):
    """The restriction as boolean matrix algebra: an entity is kept when it lies
    inside `valid` and no candidate partner lies outside it."""
    def inside(items):
        t = np.array([x.t for x in items], dtype=np.float64)
        return (valid.start <= t) & (t < valid.stop)

    event_in, detection_in = inside(assignment.events), inside(assignment.detections)
    candidate = assignment.weights > 0
    keep_e = event_in & ~(candidate & ~detection_in[None, :]).any(axis=1)
    keep_d = detection_in & ~(candidate & ~event_in[:, None]).any(axis=0)
    return ([e for e, keep in zip(assignment.events, keep_e) if keep],
            [d for d, keep in zip(assignment.detections, keep_d) if keep])


class TestRestrict:
    def test_margin_event_excludes_coupled_detection(self):
        a = associate([10], [20], 15)
        events, detections = restrict(a, valid_range(1000, 15))
        assert events == [] and detections == []

    def test_interior_pair_retained(self):
        a = associate([500], [503], 15)
        events, detections = restrict(a, valid_range(1000, 15))
        assert len(events) == 1 and len(detections) == 1

    def test_valid_event_with_margin_candidate_excluded(self):
        a = associate([984], [990], 15)
        events, detections = restrict(a, valid_range(1000, 15))
        assert events == []

    def test_restriction_safety(self):
        rng = np.random.default_rng(0)
        valid = valid_range(200, 15)
        for _ in range(200):
            events = sorted(rng.integers(0, 200, size=rng.integers(0, 6)).tolist())
            dets = sorted(rng.integers(0, 200, size=rng.integers(0, 6)).tolist())
            a = associate(events, dets, 15)
            kept_e, kept_d = restrict(a, valid)
            for e in kept_e:
                assert valid.start <= e.t < valid.stop
                for d in dets:
                    if abs(d - e.t) < 15:
                        assert valid.start <= d < valid.stop
            for d in kept_d:
                assert valid.start <= d.t < valid.stop
                for e in events:
                    if abs(e - d.t) < 15:
                        assert valid.start <= e < valid.stop

    @given(_ENTITIES, _ENTITIES, st.integers(0, 8))
    @settings(max_examples=300, deadline=None)
    def test_matches_mask_formulation(self, events, detections, h):
        a = associate(events, detections, 5)
        valid = valid_range(32, h)
        assert restrict(a, valid) == _restrict_by_masks(a, valid)


class TestSoftConfusion:
    def test_partial_match_bookkeeping(self):
        c = soft_confusion([100, 300], [101, 500], 1000, 15)
        assert c.tp_s == pytest.approx(14 / 15, abs=1e-12)
        assert c.fp_s == pytest.approx(2 - 14 / 15, abs=1e-12)
        assert c.fn_s == pytest.approx(2 - 14 / 15, abs=1e-12)
        assert c.tn_s == pytest.approx((1000 - 2) - c.fp_s, abs=1e-12)

    def test_perfect_detections(self):
        c = soft_confusion([100, 300], [100, 300], 1000, 15)
        assert (c.tp_s, c.fp_s, c.fn_s) == (2.0, 0.0, 0.0)

    def test_no_detections(self):
        c = soft_confusion([100, 300], [], 1000, 15)
        assert (c.tp_s, c.fp_s, c.fn_s) == (0.0, 0.0, 2.0)

    @given(
        st.lists(st.integers(0, 400), max_size=8),
        st.lists(st.integers(0, 400), max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_conservation(self, events, detections):
        c = soft_confusion(events, detections, 500, 15)
        assert c.tp_s + c.fn_s == pytest.approx(len(events), abs=1e-9)
        assert c.tp_s + c.fp_s == pytest.approx(len(detections), abs=1e-9)
        assert c.tp_s <= min(len(events), len(detections)) + 1e-9

    @given(
        st.lists(st.integers(0, 400), max_size=6),
        st.lists(st.integers(0, 400), max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_swapping_sides_swaps_precision_recall(self, events, detections):
        m1 = soft_metrics(soft_confusion(events, detections, 500, 15))
        m2 = soft_metrics(soft_confusion(detections, events, 500, 15))
        if m1.precision is None:
            assert m2.recall is None
        else:
            assert m1.precision == pytest.approx(m2.recall, abs=1e-9)
        if m1.recall is None:
            assert m2.precision is None
        else:
            assert m1.recall == pytest.approx(m2.precision, abs=1e-9)

    def test_monotonicity_in_offset(self):
        previous = np.inf
        for offset in range(0, 20):
            c = soft_confusion([100], [100 + offset], 1000, 15)
            assert c.tp_s <= previous + 1e-12
            previous = c.tp_s


class TestSoftMetrics:
    def test_partial_example(self):
        m = soft_metrics(soft_confusion([100, 300], [101, 500], 1000, 15))
        assert m.precision == pytest.approx(7 / 15, abs=1e-12)
        assert m.recall == pytest.approx(7 / 15, abs=1e-12)

    def test_perfect(self):
        m = soft_metrics(SoftConfusion(tp_s=3, fp_s=0, fn_s=0, n_events=3, n_detections=3, n_time=100))
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_all_zero_credit(self):
        m = soft_metrics(SoftConfusion(tp_s=0, fp_s=2, fn_s=2, n_events=2, n_detections=2, n_time=100))
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_undefined_distinct_from_zero(self):
        m = soft_metrics(SoftConfusion(tp_s=0, fp_s=0, fn_s=2, n_events=2, n_detections=0, n_time=100))
        assert m.precision is None and m.recall == 0.0 and m.f1 is None


class TestEvaluateWindowed:
    def test_interior_window_equals_plain_softed(self):
        events = [200, 500]
        detections = [201, 503]
        result = evaluate_windowed([(events, detections)], 1000, WindowEvalConfig(tolerance_k=15, margin_h=15))
        plain = soft_confusion(events, detections, 1000 - 30, 15)
        assert result.confusion.tp_s == pytest.approx(plain.tp_s, abs=1e-12)
        assert result.confusion.fp_s == pytest.approx(plain.fp_s, abs=1e-12)

    def test_zero_margin_reduces_to_plain_softed(self):
        rng = np.random.default_rng(1)
        window_sets = []
        for _ in range(5):
            window_sets.append((
                sorted(rng.integers(0, 300, size=4).tolist()),
                sorted(rng.integers(0, 300, size=4).tolist()),
            ))
        windowed = evaluate_windowed(window_sets, 300, WindowEvalConfig(tolerance_k=15, margin_h=0))
        total = SoftConfusion()
        for events, detections in window_sets:
            total += soft_confusion(events, detections, 300, 15)
        assert windowed.confusion.tp_s == pytest.approx(total.tp_s, abs=1e-9)
        assert windowed.confusion.fp_s == pytest.approx(total.fp_s, abs=1e-9)
        assert windowed.confusion.fn_s == pytest.approx(total.fn_s, abs=1e-9)
        assert windowed.confusion.tn_s == pytest.approx(total.tn_s, abs=1e-9)

    def test_margin_event_escapes_penalty(self):
        # A stroke at absolute sample 52, detected exactly, seen by two
        # overlapping windows starting at 0 and 50. The second window holds
        # the event at relative t=2 (inside its margin) and its detection was
        # cut off with the signal edge, so plain scoring books a miss there.
        window_a = ([52], [52])
        window_b = ([2], [])
        restricted = evaluate_windowed([window_a, window_b], 100, WindowEvalConfig(tolerance_k=15, margin_h=15))
        assert restricted.confusion.tp_s == 1.0
        assert restricted.confusion.fp_s + restricted.confusion.fn_s == 0.0
        unrestricted = evaluate_windowed([window_a, window_b], 100, WindowEvalConfig(tolerance_k=15, margin_h=0))
        assert unrestricted.confusion.fp_s + unrestricted.confusion.fn_s >= 1.0

    def test_histogram_masses_at_offsets(self):
        result = evaluate_windowed([([100, 300], [101, 302])], 1000, WindowEvalConfig())
        rows = histogram_rows(result)
        # offsets 1 and 2 -> memberships 14/15 and 13/15
        by_low = {round(lo, 6): count for lo, hi, count in rows}
        assert by_low[round(14 / 15, 6)] == 1
        assert by_low[round(13 / 15, 6)] == 1
        assert result.histogram.sum() == 2

    def test_histogram_separates_exact_hits(self):
        result = evaluate_windowed([([100], [100]), ([200], [201])], 1000, WindowEvalConfig())
        rows = histogram_rows(result)
        assert rows[-1] == (1.0, 1.0, 1)
        assert rows[-2][2] == 1

    def test_histogram_counts_unmatched_as_zero(self):
        result = evaluate_windowed([([100], [600])], 1000, WindowEvalConfig())
        assert result.histogram[0] == 2  # one orphan event + one orphan detection
        assert result.histogram.sum() == 2

    def test_metrics_payload_shape(self):
        result = evaluate_windowed([([100], [100])], 1000, WindowEvalConfig())
        payload = metrics_payload(result)
        assert set(payload) == {"precision", "recall", "f1", "tp_s", "fp_s", "fn_s",
                                "tn_s", "n_windows", "k", "h"}
        assert payload["n_windows"] == 1 and payload["f1"] == 1.0
