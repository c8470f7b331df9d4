"""Contact-network epidemiology toolkit.

Build or load a graph, rank nodes by centrality, measure how removals pull
the dominant adjacency eigenvalue down, and stress-test vaccination
strategies in stochastic SIR simulations.
"""

from .centrality import (CentralityScores, Metric, NonConvergenceError,
                         betweenness_centrality, closeness_centrality, compute,
                         compute_many, degree_centrality, eigenvector_centrality,
                         ranking, top_k)
from .generators import (GenSpec, degree_preserving_shuffle, gen_barabasi_albert,
                         gen_duplication_divergence, gen_erdos_renyi, gen_gnp,
                         gen_random_geometric, generate)
from .graph import (DegreeStats, EmptyGraphError, Graph, degree_stats, delete_nodes,
                    from_arrays, from_edge_list, read_edge_list, write_edge_list)
from .ingest import (DailyGraphSet, ZeroRecordsError, build_daily_graphs,
                     load_daily_graphs, parse_contacts)
from .sirsim import (EnsembleResult, Intervention, SirParams, SirSummary,
                     SirTrajectory, ensemble, peak_and_final, replicate_graphs,
                     simulate)
from .spectral import (BoundsReport, SirRates, SpectralResult, ThresholdReport,
                       lambda_max, spectral_bounds_check, threshold_check)
from .stats import TestResult, mean_std, paired_t_test, regularized_incomplete_beta, t_cdf
from .vaccination import (EigenDropReport, HerdReport, VaccinationPlan, eigen_drop,
                          herd_equivalent, plan_random, plan_topk)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
