"""Infinite restricted Boltzmann machines with random-permutation training."""

from .model import (
    ModelParams,
    PenaltyConfig,
    ZPosterior,
    apply_permutation,
    free_energy,
    marginal_z_posterior,
    z_posterior,
    zero_model,
)
from .sampling import (
    FantasyChains,
    PhaseSamples,
    run_cd,
    run_label_cd,
    run_pcd,
)
from .training import (
    Gradients,
    OptimizerState,
    RegroupState,
    TrainConfig,
    Trainer,
    grad_discriminative_exact,
    grad_discriminative_sampled,
    grad_generative,
    regroup_schedule_update,
    sample_permutation,
)
from .evaluation import (
    AisResult,
    EvalReport,
    InvarianceReport,
    ais_log_partition,
    check_order_invariance,
    classification_metrics,
    converted_rbm_loglik,
    effective_hidden_size,
    exact_cond_loglik,
    exact_generative_gradient,
    exact_log_partition,
    exact_loglik,
    log_partition_estimator,
    permutation_averaged_loglik,
)
from .datasets import (
    Dataset,
    binarize_stochastic,
    load_mnist_idx,
    read_ibmp,
    synth_bars_and_stripes,
    synth_shifted_patterns,
    write_ibmp,
)

__version__ = "0.1.0"
