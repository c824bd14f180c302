"""hdsparse: sparse statistical learning toolkit.

Three pillars: mutual-information variable screening (FFT-KDE, histogram, and
k-nearest-neighbor estimators), accelerated first-order solvers for SCAD/MCP
penalized linear and logistic models, and a heavy-tailed q-Gaussian penalized
regression model fitted by a proximal Hager-Zhang conjugate gradient.
"""

from .agsolver import (
    AGSchedule,
    CompositeProblem,
    SmoothObjective,
    SolveReport,
    ag_solve,
    ag_traces,
    complexity_bound,
    make_composite,
    make_linear_objective,
    make_logistic_objective,
    pg_solve,
    schedule_optimal,
    schedule_original,
    verify_schedule,
)
from .bench import (
    BenchReport,
    SimSpec,
    gen_dataset,
    gen_design,
    gen_outcome,
    gen_signal,
    lambda_path,
    ppv_npv,
    run_benchmark,
    scaled_estimation_error,
)
from .data import (
    FeatureMatrix,
    ResponseVector,
    read_table,
    write_table,
)
from .pcg import (
    linear_cg,
    linearized_moreau_grad,
    pcg_solve,
)
from .penalty import (
    PenaltySpec,
    penalty_value,
    prox_scaled_l1,
)
from .qgaussian import (
    QGaussianModel,
    QGaussianParams,
    QShape,
    covariance,
    dof_from_q,
    fit,
    logpdf,
    predict,
    q_covariance,
    q_exp,
    q_from_dof,
    q_log,
    recover_q_subset,
)
from .screen import (
    RankedFeatures,
    mi_binning,
    mi_fftkde,
    mi_knn,
    pearson_abs,
    screen_all,
    selection_auroc,
    silverman_bandwidth,
)

__version__ = "0.1.0"
