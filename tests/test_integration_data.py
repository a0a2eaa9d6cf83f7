"""Integration checks against the published web-crawl samples.

These run only when RANKTAIL_DATA_DIR points at a directory containing the
edge lists (plain or gzipped): indochina-2004.txt[.gz], eu-2005.txt[.gz],
web-Stanford.txt[.gz].  They reproduce the published degree statistics and
fitted in-degree lines for those datasets.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from ranktail.graph import degree_profile, load_edge_list
from ranktail.tails import ccdf, choose_xmin, fit_exponent_mle
from ranktail.theory import TheoryParams, b_coefficient, coefficient_C

DATA_DIR = os.environ.get("RANKTAIL_DATA_DIR")

pytestmark = pytest.mark.skipif(
    not DATA_DIR, reason="RANKTAIL_DATA_DIR not set; crawl samples unavailable")


def _find(stem: str) -> Path:
    base = Path(DATA_DIR)
    for suffix in (".txt", ".txt.gz"):
        path = base / f"{stem}{suffix}"
        if path.exists():
            return path
    pytest.skip(f"{stem} not present under {DATA_DIR}")


@pytest.fixture(scope="module")
def stanford():
    return load_edge_list(_find("web-Stanford"))


def test_stanford_counts(stanford):
    assert stanford.n == 281903
    assert stanford.m > 2_300_000


def test_stanford_statistics(stanford):
    profile = degree_profile(stanford)
    assert profile.d == pytest.approx(8.2032, abs=0.01)
    assert profile.p0 == pytest.approx(0.006, abs=0.002)
    assert b_coefficient(profile.p_hist, 1.1) == pytest.approx(0.8558, abs=0.01)


def test_stanford_scores_and_dangling_mass(stanford):
    from ranktail.pagerank import PageRankParams, pagerank

    result = pagerank(stanford, PageRankParams(c=0.85, tol=1e-10,
                                               snapshot_iters={1, 2}))
    assert result.converged
    for k in (1, 2):
        assert result.snapshots[k].mean() == pytest.approx(1.0, abs=1e-9)
    assert result.scores.mean() == pytest.approx(1.0, abs=1e-9)
    # modeling-assumption check (not an identity): dangling nodes carry
    # roughly their node-count share of the score mass
    profile = degree_profile(stanford)
    dm = result.scores[stanford.out_deg == 0].sum() / stanford.n
    assert dm == pytest.approx(profile.p0, abs=0.01)


def test_indochina_statistics_and_line():
    g = load_edge_list(_find("indochina-2004"))
    assert g.n == 7414866
    profile = degree_profile(g)
    assert profile.d == pytest.approx(26.17, abs=0.05)
    assert profile.p0 == pytest.approx(0.18, abs=0.01)
    assert b_coefficient(profile.p_hist, 1.17) == pytest.approx(0.65, abs=0.02)

    indeg = np.asarray(g.in_deg, dtype=float)
    fit = fit_exponent_mle(indeg, choose_xmin(ccdf(indeg)))
    # published straight line: y = -1.17x + 0.80
    assert fit.alpha_hat == pytest.approx(1.17, abs=0.05)
    assert fit.intercept == pytest.approx(0.80, abs=0.15)

    params = TheoryParams.from_profile(profile, c=0.85, alpha=1.17)
    assert math.log10(coefficient_C(params)) == pytest.approx(-1.50, abs=0.05)


def test_eu2005_statistics_and_line():
    g = load_edge_list(_find("eu-2005"))
    assert g.n == 862664
    profile = degree_profile(g)
    assert profile.d == pytest.approx(22.3, abs=0.05)
    assert profile.p0 == pytest.approx(0.08, abs=0.01)
    assert b_coefficient(profile.p_hist, 1.1) == pytest.approx(0.70, abs=0.02)

    indeg = np.asarray(g.in_deg, dtype=float)
    fit = fit_exponent_mle(indeg, choose_xmin(ccdf(indeg)))
    # published straight line: y = -1.1x + 0.61
    assert fit.alpha_hat == pytest.approx(1.1, abs=0.05)
    assert fit.intercept == pytest.approx(0.61, abs=0.15)
