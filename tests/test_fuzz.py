"""Randomized bound campaigns: cleanliness, determinism, exhaustive censuses."""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os

import pytest

import spanlab as S
from spanlab import fuzz

ALL_LEMMAS = ["2.1", "2.2", "2.3", "2.4", "2.5", "2.6", "2.7", "2.8", "2.9"]


def test_campaign_registry_is_complete():
    assert list(S.CAMPAIGNS) == ALL_LEMMAS
    for lemma in ALL_LEMMAS:
        with pytest.raises((KeyError, ValueError)):
            S.run_campaign(lemma + "x", trials=1)


@pytest.mark.parametrize("lemma", ALL_LEMMAS)
def test_campaigns_report_zero_violations(lemma):
    rep = S.run_campaign(lemma, trials=2000, seed=0)
    assert rep.lemma == lemma
    assert rep.trials == 2000
    assert rep.violations == 0
    assert rep.examples == []
    assert rep.applied > 0
    assert rep.applied <= rep.trials
    assert rep.description


def test_negative_trials_are_refused():
    with pytest.raises(ValueError, match="trials"):
        S.run_campaign("2.1", trials=-1)
    rep = S.run_campaign("2.9", trials=0, seed=0)
    assert (rep.trials, rep.applied, rep.violations) == (0, 0, 0)
    assert rep.exhaustive["sequences"] == 27695


def test_every_bound_report_is_pinned():
    # fuzz.json keeps only counts, and examples only on a violation; this
    # pins each trial's whole report, witnesses and detail fields included
    digest = hashlib.sha256()
    for campaign in S.CAMPAIGNS.values():
        for seed in (3, 4):
            for i in range(500):
                rep, _ = campaign.case(fuzz._trial_rng(seed, i), i)
                digest.update(json.dumps(rep.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "fb9905b22d574c6b052d479ff1f7bed8043e1fa247ad6efaa85faed7ed8401c7")


def test_campaigns_are_deterministic_per_seed():
    a = S.run_campaign("2.4", trials=500, seed=7)
    b = S.run_campaign("2.4", trials=500, seed=7)
    assert (a.applied, a.violations) == (b.applied, b.violations)
    c = S.run_campaign("2.4", trials=500, seed=8)
    assert c.seed != a.seed


def _no_pool(workers):
    raise AssertionError(f"a pool of {workers} was started")


@pytest.fixture(scope="module")
def one_cpu_reports():
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fuzz, "usable_cpus", lambda: 1)
        m.setattr(fuzz, "ProcessPoolExecutor", _no_pool)
        return [r.to_dict() for r in S.run_all_campaigns(trials=200, seed=1)]


@pytest.mark.parametrize("cpus", [1, 2, 16])
def test_run_all_campaigns_covers_every_lemma(monkeypatch, one_cpu_reports, cpus):
    # the reports, fuzz.json's bytes, do not depend on the usable CPUs
    monkeypatch.setattr(fuzz, "usable_cpus", lambda: cpus)
    reports = S.run_all_campaigns(trials=200, seed=1)
    assert [r.lemma for r in reports] == ALL_LEMMAS
    assert all(r.violations == 0 for r in reports)
    assert [r.to_dict() for r in reports] == one_cpu_reports
    monkeypatch.setattr(fuzz, "ProcessPoolExecutor", _no_pool)
    # one campaign, or one more after the first, starts no pool
    subset = S.run_all_campaigns(trials=200, seed=1, lemmas=["2.2", "2.5"])
    assert [r.lemma for r in subset] == ["2.2", "2.5"]
    (single,) = S.run_all_campaigns(trials=200, seed=1, lemmas=["2.5"])
    assert single.to_dict() == one_cpu_reports[ALL_LEMMAS.index("2.5")]


def test_first_campaign_runs_in_the_caller_before_any_pool(monkeypatch):
    # the benchmark's set-up probe stops at the first run_campaign call, so
    # a pool built before it would put its imports into set-up time
    calls = []
    real_pool, real_campaign, caller = fuzz.ProcessPoolExecutor, fuzz.run_campaign, os.getpid()

    def pool(workers):
        calls.append(("pool", workers))
        return real_pool(workers)

    @functools.wraps(real_campaign)  # pickled by its name, spanlab.fuzz.run_campaign
    def run_campaign(lemma, trials, seed):
        if os.getpid() == caller:
            calls.append(("campaign", lemma))
        return real_campaign(lemma, trials, seed)

    monkeypatch.setattr(fuzz, "usable_cpus", lambda: 2)
    monkeypatch.setattr(fuzz, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(fuzz, "run_campaign", run_campaign)
    reports = fuzz.run_all_campaigns(trials=20, seed=0)
    assert [r.lemma for r in reports] == ALL_LEMMAS
    assert calls[:2] == [("campaign", "2.1"), ("pool", 1)]
    assert multiprocessing.active_children() == []


def test_restricted_sum_exhaustive_census():
    rep = S.run_campaign("2.6", trials=100, seed=0)
    assert rep.violations == 0
    ex = rep.exhaustive
    assert ex["violations"] == 0
    midpoint, fullspan = ex["suites"]
    # every zero-free 6-subset of Z13, midpoint clause at t = 3
    assert midpoint["sets"] == 924
    assert midpoint["t"] == 3
    assert midpoint["violations"] == 0
    # the clause is genuinely the zero-adjoined one: without adjoining 0
    # exactly half of the 924 sets fail, e.g. {1,...,6}
    assert midpoint["observed_bare_failures"] == 462
    # full-span clause over Z11 for all sets of size >= threshold
    assert fullspan["threshold"] == 6
    assert fullspan["zero_free_sets"] == 386
    assert fullspan["violations"] == 0
    assert fullspan["with_zero_sets"] == 637
    assert fullspan["observed_with_zero_failures"] == 10


def test_sequence_growth_exhaustive_census():
    rep = S.run_campaign("2.9", trials=100, seed=0)
    assert rep.violations == 0
    assert rep.exhaustive["sequences"] == 27695
    assert rep.exhaustive["violations"] == 0


FAILING_REPORT_SHA256 = {
    "2.5": "752a96eaafc6eb71f0c0f83f5237ebcb83596d91abd22aa29d6d2619fd52fa44",
    "2.9": "be4852d3811f6fb476d80a60d1da9470d78d973fa5122ff49d8998be94d86d49",
}


@pytest.mark.parametrize("lemma", FAILING_REPORT_SHA256)
def test_failing_campaign_report_is_pinned(monkeypatch, lemma):
    # every golden fuzz.json run is clean; here one trial in seven is made to
    # fail, so the report carries violations and its capped examples, each
    # with the failing BoundReport's to_dict() (2.9 adds the census)
    orig = S.CAMPAIGNS[lemma]

    def case(rng, i):
        rep, example = orig.case(rng, i)
        if i % 7 == 3:
            rep = S.BoundReport(rep.check, rep.applied, False, rep.actual,
                                rep.bound, rep.detail)
        return rep, example

    monkeypatch.setitem(S.CAMPAIGNS, lemma,
                        fuzz.Campaign(orig.description, case, orig.census))
    rep = S.run_campaign(lemma, trials=50, seed=11)
    assert (rep.violations, len(rep.examples), rep.clean) == (7, 5, False)
    text = json.dumps(rep.to_dict())
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == FAILING_REPORT_SHA256[lemma], text
