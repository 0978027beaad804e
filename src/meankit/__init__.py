"""Weighted means, their scaling homogenizations, and verification suites."""

from .domain import (
    IntervalDomain,
    MeanKind,
    WeightedSample,
    all_reals,
    eliminate_zero_weights,
    make_weighted_sample,
    open_interval,
    positive_reals,
    shuffle_merge,
)
from .expr import (
    Difference,
    Kernel2,
    Ratio,
    ScalarFunction,
    Sign,
    arithmetic_kernel,
    cosh_generator,
    difference_kernel,
    evaluate,
    exp_generator,
    kernel_from_expression,
    log_generator,
    parse,
    power_generator,
    ratio_kernel,
    scalar_from_expression,
    shifted_power_generator,
    sign_kernel,
    to_source,
)
from .classic_means import (
    common_power_order,
    local_power_order,
    power_mean,
    qa_local_homogenization,
    quasiarithmetic_mean,
    scaling_ratio_limit,
)
from .semideviation import (
    SemidevMeanConfig,
    check_semideviation,
    deviation_mean,
    deviation_sum,
    normalize_kernel,
    semideviation_mean,
    semideviation_means,
)
from .homogenize import (
    LimitEstimate,
    MeanHandle,
    deviation_handle,
    envelope_pair,
    homogeneous_kernels,
    homogenization_profile,
    kernel_homogenization,
    limit_at_zero,
    local_homogenization,
    power_handle,
    quasiarithmetic_handle,
    semideviation_handle,
    translated_power_handle,
)
from .verify import (
    Condition,
    Report,
    SamplePlan,
    hoelder_preset,
    minkowski_preset,
    verify_cei,
    verify_comparison,
    verify_homi,
    verify_jensen,
    verify_lemma_lim,
    verify_sandwich,
    verify_tei,
)

__version__ = "0.1.0"
