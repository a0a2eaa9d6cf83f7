"""End-to-end analysis pipeline: degree stats, tail fits, coefficients,
predicted lines, and residuals, assembled into a versioned report."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tails, theory
from .formats import write_json
from .graph import Graph, degree_profile
from .pagerank import PageRankParams, _series, series_params
from .tails import TailFit, _tail_fit, ccdf, choose_xmin

SCHEMA_VERSION = 1


@dataclass
class AnalysisOptions:
    dampings: list[float] = field(default_factory=lambda: [PageRankParams.c])
    tol: float = PageRankParams.tol
    max_iters: int = PageRankParams.max_iters
    snapshot_iters: list[int] = field(default_factory=list)
    xmin: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        series_params(self.dampings, self.tol, self.max_iters, self.snapshot_iters)
        if self.alpha is not None:
            theory.validate_cumulative_alpha(self.alpha)
        if self.xmin is not None and not 0.0 < self.xmin < float("inf"):
            raise ValueError(f"xmin must be a positive finite number, got {self.xmin}")


def _analyze_vector(values: np.ndarray, xmin: float | None,
                    label: str) -> tuple[tails.CcdfSeries, TailFit | None, list[str]]:
    """Sort float ``values`` into one CCDF; return its written (decimated)
    points, the tail fit read off that CCDF, with x_min read off it too
    unless ``xmin`` is given, and the warning of a skipped fit."""
    series = ccdf(values)
    try:
        if series.xs.size == 0:  # every fit of it would raise
            raise ValueError("degenerate CCDF: every positive value is equal")
        fit = _tail_fit(values, xmin if xmin is not None else choose_xmin(series), series)
    except ValueError as exc:
        return tails.decimate_ccdf(series), None, [f"{label}: tail fit skipped ({exc})"]
    return tails.decimate_ccdf(series), fit, []


def damping_warnings(key: str, result, snapshot_iters) -> list[str]:
    """The warnings of damping ``key``'s run: the requested snapshots after
    its stop, which were not taken, and its non-convergence."""
    lines = []
    missed = sorted(k for k in set(snapshot_iters) if k > result.iters_run)
    if missed:
        lines.append(f"c={key}: snapshot iterations {missed} not taken; "
                     f"the damping stopped at iteration {result.iters_run}")
    if not result.converged:
        lines.append(f"c={key} not converged after {result.iters_run} iterations "
                     f"(residual {result.residuals[-1]:.3e})")
    return lines


def vector_suffix(key: str, k: int | None) -> str:
    """The file-stem suffix of damping ``key``'s snapshot at iteration k, or
    of its final scores when k is None."""
    return f"c{key}" if k is None else f"c{key}_iter{k}"


def analyze_graph(g: Graph, options: AnalysisOptions | None = None):
    """Run the full pipeline.

    The in-degrees are analysed first.  Then the PageRank series runs
    (`pagerank._series`), and each score vector, a snapshot R_k or a
    damping's final scores, is analysed when the series takes it and then
    dropped: one CCDF, its decimated points and the tail fit read off it.
    So no more than one score vector is held beside the series' own.  The
    report is assembled in damping order once the series ends, with the
    warnings in the order of a damping's stop, then its final vector and
    snapshots, then its coefficients.

    Returns (report dict, distributions dict); the distributions map CSV
    stem names to the decimated CcdfSeries that ``write_analysis`` writes.
    """
    if options is None:
        options = AnalysisOptions()
    params = series_params(options.dampings, options.tol, options.max_iters,
                           options.snapshot_iters)
    warnings_out: list[str] = []
    profile = degree_profile(g)

    distributions = {}
    # the float copy of the in-degrees lives only while it is analysed
    distributions["ccdf_indegree"], indegree_fit, skipped = _analyze_vector(
        np.asarray(g.in_deg, dtype=float), options.xmin, "in-degree")
    warnings_out += skipped

    alpha_used = options.alpha if options.alpha is not None else (
        indegree_fit.alpha_hat if indegree_fit else None)

    report = {
        "schema_version": SCHEMA_VERSION,
        "degree_profile": profile.to_dict(),
        "indegree_fit": indegree_fit.to_dict() if indegree_fit else None,
        "alpha_used": alpha_used,
        "pagerank": {},
        "coefficients": {},
        "predicted_lines": [],
        "residuals": [],
        "warnings": warnings_out,
    }

    keys = [repr(float(c)) for c in options.dampings]
    # per damping: its stop's warnings and report entry, then the analysis of
    # each vector, keyed by its snapshot iteration or None for the final one
    stops: list[tuple[list[str], dict] | None] = [None] * len(params)
    analysed: list[dict] = [{} for _ in params]
    for d, k, taken in _series(g, params):
        key = keys[d]
        if k is None:  # the damping stopped; only its scores are kept below
            stops[d] = (damping_warnings(key, taken, options.snapshot_iters),
                        {"iters_run": taken.iters_run, "converged": taken.converged,
                         "final_residual": float(taken.residuals[-1])})
            taken = taken.scores
        analysed[d][k] = _analyze_vector(
            taken, None, f"pagerank c={key} {'final' if k is None else k}")
        del taken  # not held while the series makes the next vector

    for c, key, (stop_warnings, entry), vectors in zip(options.dampings, keys, stops,
                                                        analysed):
        warnings_out.extend(stop_warnings)
        snapshots = sorted(k for k in vectors if k is not None)
        fits = {}
        for k in [None, *snapshots]:
            label = "final" if k is None else str(k)
            distributions[f"ccdf_pagerank_{vector_suffix(key, k)}"], fits[label], skipped = \
                vectors[k]
            warnings_out += skipped

        report["pagerank"][key] = {
            **entry,
            "fit": fits["final"].to_dict() if fits["final"] else None,
            "snapshot_fits": {lab: (f.to_dict() if f else None)
                              for lab, f in fits.items() if lab != "final"},
        }

        if alpha_used is None or alpha_used <= 1.0:
            warnings_out.append(f"c={key}: no usable tail exponent; coefficients skipped")
            continue
        try:
            tparams = theory.TheoryParams.from_profile(profile, c=c, alpha=alpha_used)
        except ValueError as exc:
            warnings_out.append(f"c={key}: coefficients skipped ({exc})")
            continue
        try:
            lower = theory.coefficient_lower_bound(tparams)
        except ValueError as exc:
            lower = None
            warnings_out.append(f"c={key}: lower bound undefined ({exc})")
        coeffs = {"b": tparams.b,
                  "C_limit": theory.coefficient_C(tparams),
                  "C_lower_bound": lower,
                  "C_k": {str(k): theory.coefficient_Ck(tparams, k)
                          for k in snapshots}}
        report["coefficients"][key] = coeffs

        if indegree_fit is None:
            continue
        line_specs = [("limit", coeffs["C_limit"], "final")]
        line_specs += [(str(k), coeffs["C_k"][str(k)], str(k))
                       for k in snapshots]
        for k_label, c_value, fit_label in line_specs:
            slope, intercept = theory.predict_line(indegree_fit.alpha_hat,
                                                   indegree_fit.intercept, c_value)
            report["predicted_lines"].append(
                {"c": float(c), "k": k_label, "slope": slope, "intercept": intercept})
            observed = fits.get(fit_label)
            if observed is not None:
                report["residuals"].append(
                    {"c": float(c), "k": k_label,
                     "observed_intercept": observed.intercept,
                     "predicted_intercept": intercept,
                     "residual": observed.intercept - intercept})

    return report, distributions


def write_analysis(report: dict, distributions: dict, output_dir) -> Path:
    """Write report.json plus one CCDF CSV per distribution."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stem, series in distributions.items():
        tails.write_ccdf_csv(series, out / f"{stem}.csv")
    report_path = out / "report.json"
    write_json(report, report_path)
    return report_path
