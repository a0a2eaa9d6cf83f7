"""End-to-end analysis pipeline: degree stats, tail fits, coefficients,
predicted lines, and residuals, assembled into a versioned report."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tails, theory
from .graph import Graph, degree_profile
from .pagerank import PageRankParams, pagerank
from .tails import InsufficientTailError, TailFit, ccdf, choose_xmin, fit_exponent_mle

SCHEMA_VERSION = 1


@dataclass
class AnalysisOptions:
    dampings: list[float] = field(default_factory=lambda: [0.85])
    tol: float = 1e-10
    max_iters: int = 200
    snapshot_iters: list[int] = field(default_factory=list)
    xmin: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.alpha is not None:
            theory.validate_cumulative_alpha(self.alpha)


def _safe_fit(values, xmin: float | None, warnings_out: list[str], label: str) -> TailFit | None:
    try:
        x_min = xmin if xmin is not None else choose_xmin(values)
        return fit_exponent_mle(values, x_min)
    except (InsufficientTailError, ValueError) as exc:
        warnings_out.append(f"{label}: tail fit skipped ({exc})")
        return None


def analyze_graph(g: Graph, options: AnalysisOptions | None = None):
    """Run the full pipeline.

    Returns (report dict, distributions dict); the distributions map CSV
    stem names to CcdfSeries for plot-ready export.
    """
    if options is None:
        options = AnalysisOptions()
    warnings_out: list[str] = []
    profile = degree_profile(g)
    indeg = np.asarray(g.in_deg, dtype=float)

    distributions = {"ccdf_indegree": ccdf(indeg)}
    indegree_fit = _safe_fit(indeg, options.xmin, warnings_out, "in-degree")

    alpha_used = options.alpha if options.alpha is not None else (
        indegree_fit.alpha_hat if indegree_fit else None)

    report = {
        "schema_version": SCHEMA_VERSION,
        "degree_profile": json.loads(profile.to_json()),
        "indegree_fit": indegree_fit.to_dict() if indegree_fit else None,
        "alpha_used": alpha_used,
        "pagerank": {},
        "coefficients": {},
        "predicted_lines": [],
        "residuals": [],
        "warnings": warnings_out,
    }

    for c in options.dampings:
        key = repr(float(c))
        params = PageRankParams(c=c, tol=options.tol, max_iters=options.max_iters,
                                snapshot_iters=frozenset(options.snapshot_iters))
        result = pagerank(g, params)
        scores_by_label = {"final": result.scores}
        for k in sorted(result.snapshots):
            scores_by_label[str(k)] = result.snapshots[k]

        fits = {}
        for label, scores in scores_by_label.items():
            suffix = f"c{key}" if label == "final" else f"c{key}_iter{label}"
            distributions[f"ccdf_pagerank_{suffix}"] = ccdf(scores)
            fit = _safe_fit(scores, None, warnings_out, f"pagerank c={key} {label}")
            fits[label] = fit

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
        tparams = theory.TheoryParams.from_profile(profile, c=c, alpha=alpha_used)
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
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    return report_path
