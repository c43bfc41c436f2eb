"""HotnessTracker: decayed frequency beats pure recency."""

import pytest

from repro.control.hotness import HotnessTracker


class TestScores:
    def test_untouched_page_scores_zero(self):
        t = HotnessTracker(half_life_s=1.0)
        assert t.score("p", 0.0) == 0.0
        assert not t.is_hot("p", 0.0)

    def test_single_touch_is_never_hot_at_default_threshold(self):
        t = HotnessTracker(half_life_s=1.0)
        t.touch("p", 0.0)
        assert t.score("p", 0.0) == pytest.approx(1.0)
        assert not t.is_hot("p", 0.0)  # threshold 2.0

    def test_repeated_touches_accumulate(self):
        t = HotnessTracker(half_life_s=10.0)
        for i in range(3):
            t.touch("p", float(i) * 0.01)
        assert t.score("p", 0.02) > 2.0
        assert t.is_hot("p", 0.02)

    def test_score_decays_by_half_life(self):
        t = HotnessTracker(half_life_s=1.0)
        t.touch("p", 0.0)
        assert t.score("p", 1.0) == pytest.approx(0.5)
        assert t.score("p", 2.0) == pytest.approx(0.25)

    def test_frequency_beats_recency(self):
        """The Ariadne observation: a page touched many times a moment
        ago outranks a page touched once just now."""
        t = HotnessTracker(half_life_s=1.0)
        for i in range(10):
            t.touch("busy", i * 0.01)
        t.touch("fresh", 0.2)
        assert t.score("busy", 0.2) > t.score("fresh", 0.2)

    def test_idle_page_goes_cold(self):
        t = HotnessTracker(half_life_s=0.1)
        for i in range(5):
            t.touch("p", i * 0.01)
        assert t.is_hot("p", 0.05)
        assert not t.is_hot("p", 5.0)

    def test_forget_drops_history(self):
        t = HotnessTracker()
        t.touch("p", 0.0)
        t.forget("p")
        assert t.score("p", 0.0) == 0.0
        assert len(t) == 0
        t.forget("p")  # idempotent

    def test_capacity_bound_evicts_oldest_inserted(self):
        t = HotnessTracker(half_life_s=1.0, max_pages=2)
        t.touch("a", 0.0)
        t.touch("b", 0.0)
        t.touch("c", 0.0)
        assert len(t) == 2
        assert t.score("a", 0.0) == 0.0
        assert t.score("c", 0.0) == pytest.approx(1.0)

    def test_stays_at_max_pages_under_more_pages_than_the_cap(self):
        """Ten times ``max_pages`` distinct pages, re-touches between:
        the tracker never exceeds the cap, a re-touch evicts nothing,
        and what it keeps is the last ``max_pages`` first-touched."""
        cap = 16
        t = HotnessTracker(half_life_s=1.0, max_pages=cap)
        for page in range(10 * cap):
            now = page * 0.001
            t.touch(page, now)
            t.touch(max(0, page - 1), now)   # already tracked: in place
            assert len(t) == min(page + 1, cap)
        assert list(t._scores) == list(range(9 * cap, 10 * cap))
        assert t.score(0, 1.0) == 0.0


class TestValidation:
    def test_half_life_must_be_positive(self):
        with pytest.raises(ValueError, match="half_life_s"):
            HotnessTracker(half_life_s=0.0)

    def test_max_pages_must_be_positive(self):
        with pytest.raises(ValueError, match="max_pages"):
            HotnessTracker(max_pages=0)
