"""Toolkit for PageRank computation on directed graphs, power-law tail
fitting, closed-form tail-coefficient prediction, and Monte Carlo
validation of the score recursion."""

from .graph import (DegreeProfile, EdgeListParseError, Graph, degree_profile,
                    load_edge_list, write_edge_list)
from .pagerank import (PageRankParams, PageRankResult, export_scores, pagerank,
                       pagerank_series)
from .simulate import (EffectiveOutdegreeSampler, InDegreeLaw, ModelSpec, SamplePool,
                       SimulationConvergenceError, YLevelResult, initial_pool,
                       iterate_pool, simulate_R, simulate_Y_levels, tail_ratio_table)
from .synth import SynthSpec, generate
from .tails import CcdfSeries, TailFit, ccdf, choose_xmin, fit_exponent_mle
from .theory import (TheoryParams, b_coefficient, coefficient_C, coefficient_Ck,
                     coefficient_lower_bound, coefficient_table, predict_line)

__version__ = "0.1.0"
