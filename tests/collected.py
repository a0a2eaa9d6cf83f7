"""The analysis and the score export as they ran before the PageRank series
was streamed: every score vector is collected by `pagerank_series` first,
then each is analysed or written.  The streamed consumers must give the
same reports, files and warnings, in the same order.

The tail fit here is `fit_exponent_mle` as it was, with the tail's CCDF
taken from a copy of the vector with the samples below x_min set to zero.
"""

import numpy as np

from ranktail import theory
from ranktail.graph import degree_profile
from ranktail.pagerank import export_scores, pagerank_series
from ranktail.report import SCHEMA_VERSION, damping_warnings
from ranktail.tails import _MIN_TAIL, TailFit, ccdf, choose_xmin, decimate_ccdf


def masked_fit(values, x_min: float) -> TailFit:
    if x_min <= 0:
        raise ValueError("x_min must be positive")
    v = np.asarray(values, dtype=float).ravel()
    if (v < 0).any():
        raise ValueError("values must be non-negative")
    in_tail = v >= x_min
    tail = v[in_tail]
    if tail.size < _MIN_TAIL:
        raise ValueError(f"only {tail.size} tail samples (need >= {_MIN_TAIL})")
    log_sum = np.log(tail / x_min).sum()
    if log_sum <= 0:
        raise ValueError("tail has no spread above x_min; exponent undefined")
    alpha_hat = tail.size / log_sum
    series = ccdf(np.where(in_tail, v, 0.0))
    if series.xs.size == 0:
        raise ValueError("no CCDF points at or above x_min")
    intercept = float(np.mean(np.log10(series.fractions)
                              + alpha_hat * np.log10(series.xs)))
    return TailFit(alpha_hat=float(alpha_hat), x_min=float(x_min),
                   intercept=intercept, tail_count=int(tail.size))


def damping_vectors(key: str, result):
    yield "final", f"c{key}", result.scores
    for k in sorted(result.snapshots):
        yield str(k), f"c{key}_iter{k}", result.snapshots[k]


def _analyze_vector(values, xmin, warnings_out, label):
    series = ccdf(values)
    try:
        if series.xs.size == 0:
            raise ValueError("degenerate CCDF: every positive value is equal")
        fit = masked_fit(values, xmin if xmin is not None else choose_xmin(series))
    except ValueError as exc:
        warnings_out.append(f"{label}: tail fit skipped ({exc})")
        fit = None
    return decimate_ccdf(series), fit


def collected_analysis(g, options):
    """`report.analyze_graph` with every vector collected before any is analysed."""
    warnings_out = []
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
        warnings_out.extend(damping_warnings(key, result, options.snapshot_iters))
        fits = {}
        for label, suffix, scores in damping_vectors(key, result):
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


def collected_scores(g, dampings, tol, max_iters, snapshots, outdir):
    """``ranktail pagerank``'s files, written into ``outdir`` after the whole
    series ran; returns (its stderr, its exit code)."""
    results = pagerank_series(g, dampings, tol, max_iters, snapshots)
    outdir.mkdir(parents=True, exist_ok=True)
    err = []
    for c, result in zip(dampings, results):
        key = repr(float(c))
        for _, suffix, scores in damping_vectors(key, result):
            export_scores(g, scores, outdir / f"scores_{suffix}.csv")
        err += [f"warning: {line}\n" for line in damping_warnings(key, result, snapshots)]
    return "".join(err), 0 if all(r.converged for r in results) else 4
