"""End-to-end analysis pipeline: degree stats, tail fits, coefficients,
predicted lines, and residuals, assembled into a versioned report."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tails, theory
from .graph import Graph, degree_profile, write_json
from .pagerank import PageRankParams, pagerank_series, series_params
from .tails import TailFit, ccdf, choose_xmin, fit_exponent_mle

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


def _analyze_vector(values, xmin: float | None, warnings_out: list[str],
                    label: str) -> tuple[tails.CcdfSeries, TailFit | None]:
    """Sort ``values`` into one CCDF; return its written (decimated) points and
    the tail fit, with x_min read off that CCDF unless ``xmin`` is given."""
    series = ccdf(values)
    try:
        fit = fit_exponent_mle(values, xmin if xmin is not None else choose_xmin(series))
    except ValueError as exc:
        warnings_out.append(f"{label}: tail fit skipped ({exc})")
        fit = None
    return tails.decimate_ccdf(series), fit


def missed_snapshots(key: str, result, snapshot_iters) -> str | None:
    """The warning that names the requested snapshots after damping ``key``
    stopped, which were not taken; None when there are none."""
    missed = sorted(k for k in set(snapshot_iters) if k > result.iters_run)
    if missed:
        return (f"c={key}: snapshot iterations {missed} not taken; "
                f"the damping stopped at iteration {result.iters_run}")
    return None


def analyze_graph(g: Graph, options: AnalysisOptions | None = None):
    """Run the full pipeline.

    Returns (report dict, distributions dict); the distributions map CSV
    stem names to the decimated CcdfSeries that ``write_analysis`` writes.
    """
    if options is None:
        options = AnalysisOptions()
    warnings_out: list[str] = []
    profile = degree_profile(g)
    indeg = np.asarray(g.in_deg, dtype=float)

    distributions = {}
    distributions["ccdf_indegree"], indegree_fit = _analyze_vector(
        indeg, options.xmin, warnings_out, "in-degree")

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

    results = pagerank_series(g, options.dampings, options.tol, options.max_iters,
                              options.snapshot_iters)
    for c, result in zip(options.dampings, results):
        key = repr(float(c))
        missed = missed_snapshots(key, result, options.snapshot_iters)
        if missed:
            warnings_out.append(missed)
        scores_by_label = {"final": result.scores}
        for k in sorted(result.snapshots):
            scores_by_label[str(k)] = result.snapshots[k]

        fits = {}
        for label, scores in scores_by_label.items():
            suffix = f"c{key}" if label == "final" else f"c{key}_iter{label}"
            distributions[f"ccdf_pagerank_{suffix}"], fits[label] = _analyze_vector(
                scores, None, warnings_out, f"pagerank c={key} {label}")

        report["pagerank"][key] = {
            "iters_run": result.iters_run,
            "converged": result.converged,
            "final_residual": float(result.residuals[-1]),
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
                          for k in sorted(result.snapshots)}}
        report["coefficients"][key] = coeffs

        if indegree_fit is None:
            continue
        line_specs = [("limit", coeffs["C_limit"], "final")]
        line_specs += [(str(k), coeffs["C_k"][str(k)], str(k))
                       for k in sorted(result.snapshots)]
        for k_label, c_value, fit_label in line_specs:
            slope, intercept = theory.predict_line(indegree_fit, c_value)
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
