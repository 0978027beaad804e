"""Randomized and grid-based verification suites with replayable reports.

Each suite turns one mathematical statement into checkable conditions over a
deterministic sample stream.  Reports never claim logical equivalence: a
passing condition means "no counterexample found (N checks)", a failing one
carries the smallest-index witness with everything needed to replay it.

Tolerances (recorded per report): mean-level inequalities absorb root-finding
error with 1e-7 * (1 + |value|); pointwise kernel inequalities use absolute
1e-9; conditions comparing scaling-limit estimates use 1e-4 * (1 + |value|).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from .domain import (
    IntervalDomain,
    MeanKind,
    WeightedSample,
    make_weighted_sample,
    open_interval,
    positive_reals,
    probe_points,
    sign,
)
from .errors import MeanKitError, NotNormalizable
from .expr import Kernel2, ScalarFunction, difference_kernel, power_generator
from .homogenize import (
    SIGN_PROBE_RATIOS,
    LimitEstimate,
    MeanHandle,
    deviation_handle,
    homogenization_profile,
    local_homogenization,
    ratio_kernel_from_profile,
    sign_probe_failure,
)
from .semideviation import (
    SemidevMeanConfig,
    check_semideviation,
    normalize_kernel,
    semideviation_mean,
    semideviation_means,
)

MEAN_TOL = 1e-7
KERNEL_TOL = 1e-9
LIMIT_TOL = 1e-4

#: Default solver configuration for suites (accuracy set by refine_tol, not
#: the grid, for the single-crossing kernels the suites use).
SUITE_CONFIG = SemidevMeanConfig(grid_size=128)

#: Default solver configuration of the scale-profile suites (tei, cei).
PROFILE_SUITE_CONFIG = SemidevMeanConfig(grid_size=64)

#: Marks a lattice value f(a, b) outside the result domain (``verify_homi``).
_OUTSIDE = object()

KINDS = (MeanKind.LOWER_WEAK, MeanKind.LOWER_STRICT, MeanKind.UPPER_STRICT, MeanKind.UPPER_WEAK)


def mean_tol(value: float) -> float:
    return MEAN_TOL * (1.0 + abs(value))


def limit_tol(value: float) -> float:
    return LIMIT_TOL * (1.0 + abs(value))


# --- deterministic sample plans ----------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    """Seeded description of a random sample stream; one seed, one stream.

    Every 20th sample (index 19 mod 20) is degenerate (all entries equal) to
    exercise boundary behavior.
    """

    seed: int
    n_samples: int
    n_range: tuple[int, int] = (1, 6)
    entry_range: tuple[float, float] | None = None
    weight_range: tuple[float, float] = (0.1, 3.0)

    def resolved_entry_range(self, domain: IntervalDomain) -> tuple[float, float]:
        if self.entry_range is not None:
            lo, hi = self.entry_range
            if not (domain.contains(lo) and domain.contains(hi)):
                raise ValueError(f"entry range {self.entry_range} escapes {domain}")
            return self.entry_range
        pts = probe_points(domain, 2)
        return pts[0], pts[-1]

    def _draws(
        self, ranges: Sequence[tuple[float, float]]
    ) -> Iterator[tuple[list[list[float]], list[float]]]:
        """Per sample, from one stream: its length, then one entry list per
        range, then the shared weights."""
        rng = random.Random(self.seed)
        for i in range(self.n_samples):
            n = rng.randint(*self.n_range)
            entry_lists = [[rng.uniform(lo, hi) for _ in range(n)] for lo, hi in ranges]
            weights = [rng.uniform(*self.weight_range) for _ in range(n)]
            if i % 20 == 19:
                entry_lists = [[entries[0]] * n for entries in entry_lists]
            yield entry_lists, weights

    def samples(self, domain: IntervalDomain) -> list[WeightedSample]:
        return [
            make_weighted_sample(entries, weights, domain)
            for (entries,), weights in self._draws([self.resolved_entry_range(domain)])
        ]

    def sample_pairs(
        self,
        domain: IntervalDomain,
        second_range: tuple[float, float] | None = None,
        second_domain: IntervalDomain | None = None,
    ) -> list[tuple[WeightedSample, WeightedSample]]:
        """Pairs sharing length and weights (second entries drawn right after
        the first in the same stream)."""
        first_range = self.resolved_entry_range(domain)
        dom2 = second_domain or domain
        return [
            (make_weighted_sample(first, weights, domain), make_weighted_sample(second, weights, dom2))
            for (first, second), weights in self._draws([first_range, second_range or first_range])
        ]


# --- report structure -----------------------------------------------------------------


@dataclass
class Condition:
    """One named check: pass/fail, how many cases, first witness if any."""

    name: str
    holds: bool
    checked: int
    witness: dict[str, Any] | None = None
    note: str | None = None
    max_excess: float | None = None

    def record(self, ok: bool, witness_factory: Callable[[], dict[str, Any]], excess: float | None = None) -> None:
        self.checked += 1
        if excess is not None:
            self.max_excess = excess if self.max_excess is None else max(self.max_excess, excess)
        if not ok and self.holds:
            self.holds = False
            self.witness = witness_factory()

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"name": self.name, "holds": self.holds, "checked": self.checked}
        if self.witness is not None:
            doc["witness"] = self.witness
        if self.note is not None:
            doc["note"] = self.note
        if self.max_excess is not None:
            doc["max_excess"] = self.max_excess
        return doc


def new_condition(name: str, note: str | None = None) -> Condition:
    return Condition(name=name, holds=True, checked=0, note=note)


@dataclass
class Report:
    """Structured verdict of a verification run."""

    theorem_id: str
    overall: str  # pass | fail | inconclusive
    tolerances: dict[str, float]
    conditions: list[Condition] = field(default_factory=list)

    def condition(self, name: str) -> Condition:
        for cond in self.conditions:
            if cond.name == name:
                return cond
        raise KeyError(name)

    def to_dict(self) -> dict[str, Any]:
        return {
            "theorem_id": self.theorem_id,
            "overall": self.overall,
            "tolerances": self.tolerances,
            "conditions": [c.to_dict() for c in self.conditions],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _default_tolerances() -> dict[str, float]:
    return {"mean_rel": MEAN_TOL, "kernel_abs": KERNEL_TOL, "limit_rel": LIMIT_TOL}


def _assemble(theorem_id: str, conditions: list[Condition]) -> Report:
    overall = "pass" if all(c.holds for c in conditions) else "fail"
    return Report(theorem_id, overall, _default_tolerances(), conditions)


def _inconclusive(theorem_id: str, reason: str, conditions: list[Condition] | None = None) -> Report:
    report = Report(theorem_id, "inconclusive", _default_tolerances(), conditions or [])
    report.conditions.append(
        Condition(name="admission", holds=False, checked=1, note=reason)
    )
    return report


def _sample_witness(index: int, sample: WeightedSample, **extra: Any) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "sample_index": index,
        "entries": list(sample.entries),
        "weights": list(sample.weights),
    }
    doc.update(extra)
    return doc


# --- ordering / symmetry suite -----------------------------------------------------------


def verify_sandwich(
    kernel: Kernel2, plan: SamplePlan, cfg: SemidevMeanConfig | None = None
) -> Report:
    """Mean-value sandwich and symmetry of the four sign-change means."""
    cfg = cfg or SUITE_CONFIG
    admission = check_semideviation(kernel, kernel.domain_x, grid=16)
    if not admission.holds:
        return _inconclusive(
            "sandwich",
            f"kernel {kernel.name} fails the sign admission: witness {admission.witness}",
        )
    chain = new_condition("ordering_chain", "min <= lower-weak <= upper-weak <= max")
    inner = new_condition("inner_bounds", "strict kinds inside [lower-weak, upper-weak]")
    symmetry = new_condition("symmetry", "invariant under entry/weight permutation")
    perm_rng = random.Random(plan.seed * 1_000_003 + 1)
    for idx, sample in enumerate(plan.samples(kernel.domain_x)):
        means = semideviation_means(kernel, sample, KINDS, cfg)
        lw, ls = means[MeanKind.LOWER_WEAK], means[MeanKind.LOWER_STRICT]
        us, uw = means[MeanKind.UPPER_STRICT], means[MeanKind.UPPER_WEAK]
        mn, mx = sample.hull()
        tol = mean_tol(mx)
        chain.record(
            mn - tol <= lw <= uw + tol and uw <= mx + tol and lw <= uw + tol,
            lambda: _sample_witness(idx, sample, means={k.value: v for k, v in means.items()}),
        )
        inner.record(
            lw - tol <= ls <= uw + tol and lw - tol <= us <= uw + tol,
            lambda: _sample_witness(idx, sample, means={k.value: v for k, v in means.items()}),
        )
        order = list(range(len(sample)))
        perm_rng.shuffle(order)
        permuted = sample.permuted(order)
        perm_means = semideviation_means(kernel, permuted, KINDS, cfg)
        symmetry.record(
            all(abs(perm_means[k] - means[k]) <= mean_tol(means[k]) for k in KINDS),
            lambda: _sample_witness(
                idx, sample, permutation=order, means={k.value: v for k, v in means.items()},
                permuted={k.value: v for k, v in perm_means.items()},
            ),
        )
    return _assemble("sandwich", [chain, inner, symmetry])


# --- normalized-kernel limit suite ----------------------------------------------------------


#: Weights n of the second entry in lemma-lim's samples ((x, y), (1, n)).
LEMMA_LIM_WEIGHTS = (10, 100, 1_000, 10_000, 100_000, 1_000_000)


def verify_lemma_lim(kernel: Kernel2, x: float, y: float) -> Report:
    """n * (mean((x, y), (1, n)) - y) must approach the normalized kernel at
    (x, y), monotonically in error over LEMMA_LIM_WEIGHTS."""
    try:
        scaled = normalize_kernel(kernel)
    except NotNormalizable as exc:
        return _inconclusive("lemma-lim", str(exc))
    target = scaled.fn(x, y)
    lower = new_condition("lower_mean_converges", "lower-weak mean, weights (1, n)")
    upper = new_condition("upper_mean_converges", "upper-weak mean, weights (1, n)")
    if x == y:
        for cond in (lower, upper):
            cond.record(True, dict)
        return _assemble("lemma-lim", [lower, upper])
    cfg = SemidevMeanConfig(grid_size=256, refine_tol=1e-15)
    tol = 1e-3 * max(1.0, abs(target))
    for cond, kind in ((lower, MeanKind.LOWER_WEAK), (upper, MeanKind.UPPER_WEAK)):
        errors = []
        for n in LEMMA_LIM_WEIGHTS:
            sample = make_weighted_sample((x, y), (1.0, float(n)), kernel.domain_x)
            value = semideviation_mean(kernel, sample, kind, cfg)
            errors.append(abs(n * (value - y) - target))
        monotone = all(
            b <= a * (1.0 + 1e-9) + 1e-15 for a, b in zip(errors, errors[1:])
        )
        cond.record(
            monotone and errors[-1] < tol,
            lambda: {"x": x, "y": y, "target": target, "errors": errors, "n_list": list(LEMMA_LIM_WEIGHTS)},
        )
    return _assemble("lemma-lim", [lower, upper])


# --- comparison suite ---------------------------------------------------------------------


def verify_comparison(
    kernel_low: Kernel2,
    kernel_high: Kernel2,
    plan: SamplePlan,
    grid: int = 24,
    cfg: SemidevMeanConfig | None = None,
) -> Report:
    """Pointwise order of normalized kernels against the order of their means.

    Condition A: normalized kernels ordered on an off-diagonal grid.
    Condition B: all four mean kinds ordered on random samples.
    Condition C: lower-weak of the first <= upper-weak of the second (the
    weakest link).  A sample violating B while A holds (or C while B holds)
    is flagged as an implication-consistency defect, i.e. a solver bug.
    """
    cfg = cfg or SUITE_CONFIG
    try:
        low_star = normalize_kernel(kernel_low)
        high_star = normalize_kernel(kernel_high)
    except NotNormalizable as exc:
        return _inconclusive("comparison", str(exc))
    domain = kernel_low.domain_x
    lo, hi = plan.resolved_entry_range(domain)
    pts = [lo + j * (hi - lo) / (grid - 1) for j in range(grid)]
    pointwise = new_condition("kernel_pointwise", "normalized kernels ordered off-diagonal")
    for u in pts:
        for v in pts:
            if u == v:
                continue
            a, b = low_star.fn(u, v), high_star.fn(u, v)
            pointwise.record(
                a <= b + KERNEL_TOL,
                lambda: {"x": u, "y": v, "low": a, "high": b},
                excess=a - b,
            )
    means_cond = new_condition("mean_inequalities", "all four kinds ordered on samples")
    weakest = new_condition("weakest_link", "lower-weak(first) <= upper-weak(second)")
    for idx, sample in enumerate(plan.samples(domain)):
        low_means = semideviation_means(kernel_low, sample, KINDS, cfg)
        high_means = semideviation_means(kernel_high, sample, KINDS, cfg)
        ok = all(low_means[k] <= high_means[k] + mean_tol(high_means[k]) for k in KINDS)
        means_cond.record(
            ok,
            lambda: _sample_witness(
                idx,
                sample,
                low={k.value: v for k, v in low_means.items()},
                high={k.value: v for k, v in high_means.items()},
            ),
        )
        lhs, rhs = low_means[MeanKind.LOWER_WEAK], high_means[MeanKind.UPPER_WEAK]
        weakest.record(
            lhs <= rhs + mean_tol(rhs),
            lambda: _sample_witness(idx, sample, lower_weak_low=lhs, upper_weak_high=rhs),
        )
    consistency = new_condition(
        "implication_consistency",
        "no sample may break the mean order while the kernel order holds",
    )
    consistency.record(
        not (pointwise.holds and not means_cond.holds)
        and not (means_cond.holds and not weakest.holds),
        lambda: {
            "kernel_pointwise": pointwise.holds,
            "mean_inequalities": means_cond.holds,
            "weakest_link": weakest.holds,
        },
    )
    return _assemble("comparison", [pointwise, means_cond, weakest, consistency])


# --- concavity suite ----------------------------------------------------------------------


def _midpoint_concave_on_box(
    kernel: Kernel2, lo: float, hi: float, grid: int = 6
) -> bool:
    pts = [lo + j * (hi - lo) / (grid - 1) for j in range(grid)]
    for x in pts:
        for u in pts:
            for y in pts:
                for v in pts:
                    lhs = kernel.fn(0.5 * (x + y), 0.5 * (u + v))
                    rhs = 0.5 * (kernel.fn(x, u) + kernel.fn(y, v))
                    if lhs < rhs - KERNEL_TOL:
                        return False
    return True


def verify_jensen(
    kernel: Kernel2, plan: SamplePlan, grid: int = 24, cfg: SemidevMeanConfig | None = None
) -> Report:
    """Computable faces of the concavity equivalence on shared inputs.

    Face "kernel_midpoint_concavity": the normalized kernel on random
    quadruples.  Face "mixed_inequality": upper-weak at the midpoint sample
    dominates the average of lower-weak values.  Faces "mean_concavity_*":
    midpoint concavity of each kind.  The faces must agree: a sample pair
    whose hull satisfies the kernel face but violates a mean face beyond
    tolerance is a solver defect.
    """
    cfg = cfg or SUITE_CONFIG
    try:
        star = normalize_kernel(kernel)
    except NotNormalizable as exc:
        return _inconclusive("jensen", str(exc))
    domain = kernel.domain_x
    lo, hi = plan.resolved_entry_range(domain)
    quad_rng = random.Random(plan.seed * 1_000_003 + 7)
    kernel_face = new_condition("kernel_midpoint_concavity", "normalized kernel, random quadruples")
    for _ in range(max(plan.n_samples, 100)):
        x, y = quad_rng.uniform(lo, hi), quad_rng.uniform(lo, hi)
        u, v = quad_rng.uniform(lo, hi), quad_rng.uniform(lo, hi)
        lhs = star.fn(0.5 * (x + y), 0.5 * (u + v))
        rhs = 0.5 * (star.fn(x, u) + star.fn(y, v))
        kernel_face.record(
            lhs >= rhs - KERNEL_TOL,
            lambda: {"x": x, "y": y, "u": u, "v": v, "lhs": lhs, "rhs": rhs},
            excess=rhs - lhs,
        )
    mixed = new_condition("mixed_inequality", "upper-weak(midpoint) >= avg lower-weak")
    mean_faces = {kind: new_condition(f"mean_concavity_{kind.value}") for kind in KINDS}
    coupling = new_condition(
        "face_coupling",
        "no pair passes the kernel face on its hull yet breaks a mean face",
    )
    for idx, (s1, s2) in enumerate(plan.sample_pairs(domain)):
        midpoint = make_weighted_sample(
            [0.5 * (a + b) for a, b in zip(s1.entries, s2.entries)], s1.weights, domain
        )
        means1 = semideviation_means(kernel, s1, KINDS, cfg)
        means2 = semideviation_means(kernel, s2, KINDS, cfg)
        means_mid = semideviation_means(kernel, midpoint, KINDS, cfg)
        lw1, lw2 = means1[MeanKind.LOWER_WEAK], means2[MeanKind.LOWER_WEAK]
        uw_mid = means_mid[MeanKind.UPPER_WEAK]
        pair_violation = False
        rhs = 0.5 * (lw1 + lw2)
        ok = uw_mid >= rhs - mean_tol(rhs)
        pair_violation |= not ok
        mixed.record(
            ok,
            lambda: _sample_witness(
                idx, s1, entries_second=list(s2.entries), upper_weak_mid=uw_mid, avg_lower_weak=rhs
            ),
        )
        for kind in KINDS:
            m1, m2, m_mid = means1[kind], means2[kind], means_mid[kind]
            avg = 0.5 * (m1 + m2)
            ok = m_mid >= avg - mean_tol(avg)
            pair_violation |= not ok
            mean_faces[kind].record(
                ok,
                lambda: _sample_witness(
                    idx, s1, entries_second=list(s2.entries), kind=kind.value,
                    midpoint_mean=m_mid, average=avg,
                ),
            )
        if pair_violation:
            box_lo = min(min(s1.entries), min(s2.entries))
            box_hi = max(max(s1.entries), max(s2.entries))
            coupling.record(
                not _midpoint_concave_on_box(star, box_lo, box_hi),
                lambda: _sample_witness(
                    idx, s1, entries_second=list(s2.entries),
                    note="mean face violated although the kernel face holds on the hull",
                ),
            )
    conditions = [kernel_face, mixed, *mean_faces.values(), coupling]
    return _assemble("jensen", conditions)


# --- scale-profile suites -------------------------------------------------------------------


def _strict_pair_handles(
    kernel: Kernel2, cfg: SemidevMeanConfig
) -> tuple[MeanHandle, MeanHandle, Callable[[], None]]:
    """Upper-strict and lower-strict mean handles backed by one solve per
    sample (``semideviation_means`` gives each kind the value it gives alone),
    and the function that empties their shared memo."""
    kinds = (MeanKind.UPPER_STRICT, MeanKind.LOWER_STRICT)
    memo: dict[WeightedSample, dict[MeanKind, float]] = {}

    def means(s: WeightedSample) -> dict[MeanKind, float]:
        found = memo.get(s)
        if found is None:
            found = memo[s] = semideviation_means(kernel, s, kinds, cfg)
        return found

    def handle(kind: MeanKind) -> MeanHandle:
        return MeanHandle(
            f"semidev({kernel.name},{kind.value})", kernel.domain_x, lambda s: means(s)[kind]
        )

    return handle(MeanKind.UPPER_STRICT), handle(MeanKind.LOWER_STRICT), memo.clear


def verify_tei(kernel: Kernel2, plan: SamplePlan, cfg: SemidevMeanConfig | None = None) -> Report:
    """Scale-profile bounds on the local homogenizations of sign-change means.

    With h_low / h_high the liminf / limsup scale profiles of the normalized
    kernel: lower-weak mean of h_low's ratio kernel <= lower homogenization
    of the upper-strict mean, and the upper homogenization of the
    lower-strict mean <= upper-weak mean of h_high's ratio kernel.  The two
    profiles share one scan per node, and both local scans of a sample share
    its scaled solves.
    """
    cfg = cfg or PROFILE_SUITE_CONFIG
    try:
        star = normalize_kernel(kernel)
    except NotNormalizable as exc:
        return _inconclusive("tei", str(exc))
    nodes: dict[int, LimitEstimate] = {}
    h_low = homogenization_profile(kernel, "lower", normalized=star, _node_estimates=nodes)
    h_high = homogenization_profile(kernel, "upper", normalized=star, _node_estimates=nodes)
    failure = sign_probe_failure([h_low, h_high])
    if failure is not None:
        r, values, error = failure
        if error is not None:
            return _inconclusive("tei", f"scale profile failed at ratio {r}: {error}")
        if not all(math.isfinite(v) for v in values):
            return _inconclusive("tei", f"scale profile not finite at ratio {r}")
        a, b = values
        return _inconclusive(
            "tei", f"sign property violated at ratio {r}: profile values ({a}, {b})"
        )
    low_ratio = ratio_kernel_from_profile(f"scale_profile_low({kernel.name})", h_low)
    high_ratio = ratio_kernel_from_profile(f"scale_profile_high({kernel.name})", h_high)
    upper_handle, lower_handle, clear_memo = _strict_pair_handles(kernel, cfg)
    lower_bound = new_condition(
        "lower_bound", "profile mean <= lower homogenization of upper-strict mean"
    )
    upper_bound = new_condition(
        "upper_bound", "upper homogenization of lower-strict mean <= profile mean"
    )
    for idx, sample in enumerate(plan.samples(kernel.domain_x)):
        clear_memo()
        positive = sample.with_domain(positive_reals())
        lhs = semideviation_mean(low_ratio, positive, MeanKind.LOWER_WEAK, cfg)
        low_est = local_homogenization(upper_handle, positive)
        lower_bound.record(
            lhs <= low_est.tail_min + limit_tol(low_est.tail_min),
            lambda: _sample_witness(idx, sample, profile_mean=lhs, homogenization=low_est.tail_min),
        )
        rhs = semideviation_mean(high_ratio, positive, MeanKind.UPPER_WEAK, cfg)
        high_est = local_homogenization(lower_handle, positive)
        upper_bound.record(
            high_est.tail_max <= rhs + limit_tol(rhs),
            lambda: _sample_witness(idx, sample, homogenization=high_est.tail_max, profile_mean=rhs),
        )
    return _assemble("tei", [lower_bound, upper_bound])


def verify_cei(kernel: Kernel2, plan: SamplePlan, cfg: SemidevMeanConfig | None = None) -> Report:
    """Collapse of the scale construction for kernels with concave normalization.

    Hypotheses (probed; failure makes the report inconclusive): the
    normalized kernel is midpoint concave and vanishes along the scaled
    diagonal.  Checks: structure of the scale profile (finite, concave,
    nondecreasing, strictly increasing left of 1, sign of r - 1); equality of
    the profile mean with both local homogenizations of the deviation mean;
    coordinatewise monotonicity of the deviation mean.
    """
    cfg = cfg or PROFILE_SUITE_CONFIG
    try:
        star = normalize_kernel(kernel)
    except NotNormalizable as exc:
        return _inconclusive("cei", str(exc))
    domain = kernel.domain_x
    lo, hi = plan.resolved_entry_range(domain)
    probe_rng = random.Random(plan.seed * 1_000_003 + 23)
    for _ in range(200):
        x, y = probe_rng.uniform(lo, hi), probe_rng.uniform(lo, hi)
        u, v = probe_rng.uniform(lo, hi), probe_rng.uniform(lo, hi)
        lhs = star.fn(0.5 * (x + y), 0.5 * (u + v))
        rhs = 0.5 * (star.fn(x, u) + star.fn(y, v))
        if lhs < rhs - KERNEL_TOL:
            return _inconclusive(
                "cei",
                f"normalized kernel is not midpoint concave at {(x, y, u, v)}",
            )
    for r in SIGN_PROBE_RATIOS:
        t_small = 1e-6
        diag = abs(star.fn(r * t_small, t_small))
        if diag > 1e-3 * (1.0 + abs(r)):
            return _inconclusive(
                "cei", f"normalized kernel does not vanish along the diagonal at ratio {r}"
            )
    try:
        h = homogenization_profile(kernel, "estimate", normalized=star)
        probe_grid = [0.1 + j * (4.0 - 0.1) / 32 for j in range(33)]
        h_values = [h(r) for r in probe_grid]
    except (MeanKitError, ValueError) as exc:
        return _inconclusive("cei", f"scale profile unavailable: {exc}")

    structure = new_condition(
        "profile_structure", "concave, nondecreasing, strictly increasing on (0,1), sign of r-1"
    )
    slack = 1e-5
    for j in range(1, len(probe_grid) - 1):
        mid_ok = h_values[j] >= 0.5 * (h_values[j - 1] + h_values[j + 1]) - slack
        structure.record(
            mid_ok, lambda: {"r": probe_grid[j], "values": h_values[j - 1 : j + 2]}
        )
    for j in range(len(probe_grid) - 1):
        nondecreasing = h_values[j + 1] >= h_values[j] - slack
        structure.record(nondecreasing, lambda: {"r": probe_grid[j], "pair": h_values[j : j + 2]})
        if probe_grid[j + 1] < 1.0:
            structure.record(
                h_values[j + 1] > h_values[j] + 1e-6,
                lambda: {"r": probe_grid[j], "pair": h_values[j : j + 2]},
            )
    for r, v in zip(probe_grid, h_values):
        if abs(r - 1.0) < 0.05:
            continue
        structure.record(sign(v) == sign(r - 1.0), lambda: {"r": r, "value": v})

    collapse = new_condition("homogenization_collapse", "lower and upper homogenization agree")
    matches = new_condition("profile_mean_matches", "profile mean equals the homogenization")
    monotone = new_condition("mean_monotone", "deviation mean nondecreasing per coordinate")
    ratio_k = ratio_kernel_from_profile(f"scale_profile({kernel.name})", h)
    dev_handle = deviation_handle(kernel, cfg)
    bump_rng = random.Random(plan.seed * 1_000_003 + 41)
    for idx, sample in enumerate(plan.samples(domain)):
        positive = sample.with_domain(positive_reals())
        est = local_homogenization(dev_handle, positive)
        collapse.record(
            est.spread <= limit_tol(est.estimate),
            lambda: _sample_witness(idx, sample, tail_min=est.tail_min, tail_max=est.tail_max),
        )
        profile_mean = semideviation_mean(ratio_k, positive, MeanKind.LOWER_WEAK, cfg)
        matches.record(
            abs(profile_mean - est.estimate) <= limit_tol(est.estimate),
            lambda: _sample_witness(
                idx, sample, profile_mean=profile_mean, homogenization=est.estimate
            ),
        )
        value = dev_handle.fn(sample)
        coord = bump_rng.randrange(len(sample))
        bump = 0.05 * (hi - lo)
        bumped_entries = list(sample.entries)
        bumped_entries[coord] = min(bumped_entries[coord] + bump, hi)
        bumped = make_weighted_sample(bumped_entries, sample.weights, domain)
        monotone.record(
            dev_handle.fn(bumped) >= value - mean_tol(value),
            lambda: _sample_witness(idx, sample, coordinate=coord, bump=bump, base_mean=value),
        )
    return _assemble("cei", [structure, collapse, matches, monotone])


# --- operation (Minkowski / Hoelder) suite ---------------------------------------------------


def verify_homi(
    kernel_result: Kernel2,
    kernel_first: Kernel2,
    kernel_second: Kernel2,
    operation: Kernel2,
    plan: SamplePlan,
    grid: int = 10,
    monotone_mode: bool = True,
    cfg: SemidevMeanConfig | None = None,
    suite_label: str = "homi",
) -> Report:
    """Pointwise characterization of operation-subadditivity of means.

    Condition "pointwise": K_I*(f(p, q), f(u, v)) <= d1f(u, v) K_J*(p, u)
    + d2f(u, v) K_K*(q, v) on a grid^4 lattice.  Mean-level conditions: in
    ``monotone_mode`` (operation nondecreasing in each slot, probed) the five
    kind-aligned inequalities; otherwise the lower-weak mean of the result
    against all sixteen kind pairs.  A mean-level failure while the pointwise
    condition holds is an implication-consistency defect.

    The lattice evaluates f, its two partials, K_J* and K_K* once per grid
    pair (grid^2 evaluations each, shared with the monotonicity probe) and
    only K_I*(f(p, q), f(u, v)) at each of the grid^4 points; its memory is
    O(grid^2).
    """
    cfg = cfg or SUITE_CONFIG
    try:
        star_result = normalize_kernel(kernel_result)
        star_first = normalize_kernel(kernel_first)
        star_second = normalize_kernel(kernel_second)
    except NotNormalizable as exc:
        return _inconclusive(suite_label, str(exc))
    lo_j, hi_j = plan.resolved_entry_range(kernel_first.domain_x)
    lo_k, hi_k = plan.resolved_entry_range(kernel_second.domain_x)
    pts_j = [lo_j + j * (hi_j - lo_j) / (grid - 1) for j in range(grid)]
    pts_k = [lo_k + j * (hi_k - lo_k) / (grid - 1) for j in range(grid)]

    # Lattice tables indexed by grid index: f(a, b) (_OUTSIDE when it leaves
    # the result domain), the partials at (u, v), K_J*(p, u) and K_K*(q, v).
    # Each entry is filled on first use, at the lattice point and in the
    # order where a per-point evaluation would first make that call, so an
    # operation or kernel that raises does so where it would without them.
    op_values: list[list[Any]] = [[None] * grid for _ in pts_j]
    d1s: list[list[Any]] = [[None] * grid for _ in pts_j]
    d2s: list[list[Any]] = [[None] * grid for _ in pts_j]
    k_first: list[list[Any]] = [[None] * grid for _ in pts_j]
    k_second: list[list[Any]] = [[None] * grid for _ in pts_k]
    result_domain = kernel_result.domain_x

    def combine(i: int, j: int) -> Any:
        value = operation.fn(pts_j[i], pts_k[j])
        op_values[i][j] = value = value if result_domain.contains(value) else _OUTSIDE
        return value

    conditions: list[Condition] = []
    if monotone_mode:
        partials = new_condition("operation_monotone", "partials >= 0, sum > 0 on the grid")
        for iu, u in enumerate(pts_j):
            for iv, v in enumerate(pts_k):
                d1 = d1s[iu][iv] = operation.partial1(u, v)
                d2 = d2s[iu][iv] = operation.partial2(u, v)
                partials.record(
                    d1 >= -KERNEL_TOL and d2 >= -KERNEL_TOL and d1 + d2 > KERNEL_TOL,
                    lambda: {"u": u, "v": v, "d1": d1, "d2": d2},
                )
        conditions.append(partials)

    pointwise = new_condition("pointwise", "normalized-kernel inequality on the grid^4 lattice")
    for ip, p in enumerate(pts_j):
        kj_row = k_first[ip]
        for iu, u in enumerate(pts_j):
            fu_row, d1_row, d2_row = op_values[iu], d1s[iu], d2s[iu]
            for iq, q in enumerate(pts_k):
                fp = op_values[ip][iq]
                if fp is None:
                    fp = combine(ip, iq)
                kk_row = k_second[iq]
                for iv, v in enumerate(pts_k):
                    fu = fu_row[iv]
                    if fu is None:
                        fu = combine(iu, iv)
                    if fp is _OUTSIDE or fu is _OUTSIDE:
                        continue
                    lhs = star_result.fn(fp, fu)
                    d1 = d1_row[iv]
                    if d1 is None:
                        d1 = d1_row[iv] = operation.partial1(u, v)
                    kj = kj_row[iu]
                    if kj is None:
                        kj = kj_row[iu] = star_first.fn(p, u)
                    d2 = d2_row[iv]
                    if d2 is None:
                        d2 = d2_row[iv] = operation.partial2(u, v)
                    kk = kk_row[iv]
                    if kk is None:
                        kk = kk_row[iv] = star_second.fn(q, v)
                    rhs = d1 * kj + d2 * kk
                    pointwise.record(
                        lhs <= rhs + KERNEL_TOL,
                        lambda: {"p": p, "q": q, "u": u, "v": v, "lhs": lhs, "rhs": rhs},
                        excess=lhs - rhs,
                    )
    conditions.append(pointwise)

    pairs = plan.sample_pairs(
        kernel_first.domain_x, (lo_k, hi_k), second_domain=kernel_second.domain_x
    )
    mean_conditions: list[Condition] = []
    any_mean_violation = False
    if monotone_mode:
        aligned = {
            kind: new_condition(f"aligned_{kind.value}", "same kind on both sides")
            for kind in KINDS
        }
        weakest = new_condition("weakest_pair", "lower-weak result vs upper-weak arguments")
        mean_conditions = [*aligned.values(), weakest]
    else:
        pair_conditions = {
            (mk, nk): new_condition(f"pair_{mk.value}__{nk.value}")
            for mk in KINDS
            for nk in KINDS
        }
        mean_conditions = list(pair_conditions.values())

    for idx, (sx, sy_k) in enumerate(pairs):
        combined_entries = [operation.fn(a, b) for a, b in zip(sx.entries, sy_k.entries)]
        combined = make_weighted_sample(combined_entries, sx.weights, result_domain)
        first_means = semideviation_means(kernel_first, sx, KINDS, cfg)
        second_means = semideviation_means(kernel_second, sy_k, KINDS, cfg)
        if monotone_mode:
            result_means = semideviation_means(kernel_result, combined, KINDS, cfg)
            for kind in KINDS:
                bound = operation.fn(first_means[kind], second_means[kind])
                ok = result_means[kind] <= bound + mean_tol(bound)
                any_mean_violation |= not ok
                aligned[kind].record(
                    ok,
                    lambda: _sample_witness(
                        idx, sx, entries_second=list(sy_k.entries), kind=kind.value,
                        result_mean=result_means[kind], bound=bound,
                    ),
                    excess=result_means[kind] - bound,
                )
            bound = operation.fn(
                first_means[MeanKind.UPPER_WEAK], second_means[MeanKind.UPPER_WEAK]
            )
            lhs = result_means[MeanKind.LOWER_WEAK]
            ok = lhs <= bound + mean_tol(bound)
            any_mean_violation |= not ok
            weakest.record(
                ok,
                lambda: _sample_witness(
                    idx, sx, entries_second=list(sy_k.entries), result_mean=lhs, bound=bound
                ),
                excess=lhs - bound,
            )
        else:
            lhs = semideviation_mean(kernel_result, combined, MeanKind.LOWER_WEAK, cfg)
            for mk in KINDS:
                for nk in KINDS:
                    bound = operation.fn(first_means[mk], second_means[nk])
                    ok = lhs <= bound + mean_tol(bound)
                    any_mean_violation |= not ok
                    pair_conditions[(mk, nk)].record(
                        ok,
                        lambda: _sample_witness(
                            idx, sx, entries_second=list(sy_k.entries),
                            kinds=[mk.value, nk.value], result_mean=lhs, bound=bound,
                        ),
                    )
    conditions.extend(mean_conditions)
    consistency = new_condition(
        "implication_consistency", "mean-level failure while the pointwise condition holds"
    )
    consistency.record(
        not (pointwise.holds and any_mean_violation),
        lambda: {"pointwise": pointwise.holds, "mean_violation": any_mean_violation},
    )
    conditions.append(consistency)
    return _assemble(suite_label, conditions)


# --- operation presets -------------------------------------------------------------------------


def _sum_operation(domain_j: IntervalDomain, domain_k: IntervalDomain) -> Kernel2:
    return Kernel2(
        "sum",
        lambda x, y: x + y,
        domain_j,
        domain_k,
        deriv1=lambda x, y: 1.0,
        deriv2=lambda x, y: 1.0,
    )


def _product_operation(domain_j: IntervalDomain, domain_k: IntervalDomain) -> Kernel2:
    return Kernel2(
        "product",
        lambda x, y: x * y,
        domain_j,
        domain_k,
        deriv1=lambda x, y: y,
        deriv2=lambda x, y: x,
    )


def minkowski_preset(
    generator: ScalarFunction | None = None,
    factor_range: tuple[float, float] = (0.5, 4.0),
) -> dict[str, Any]:
    """Additivity setup: same difference kernel on J, K, and I = J + K."""
    gen = generator or power_generator(1.0)
    lo, hi = factor_range
    domain_j = open_interval(lo, hi)
    domain_i = open_interval(2 * lo, 2 * hi)
    return {
        "kernel_result": difference_kernel(gen, domain_i),
        "kernel_first": difference_kernel(gen, domain_j),
        "kernel_second": difference_kernel(gen, domain_j),
        "operation": _sum_operation(domain_j, domain_j),
    }


def hoelder_preset(
    generator: ScalarFunction | None = None,
    factor_range: tuple[float, float] = (0.5, 4.0),
) -> dict[str, Any]:
    """Multiplicativity setup: same difference kernel on J, K, and I = J * K."""
    gen = generator or power_generator(0.0)
    lo, hi = factor_range
    domain_j = open_interval(lo, hi)
    domain_i = open_interval(lo * lo, hi * hi)
    return {
        "kernel_result": difference_kernel(gen, domain_i),
        "kernel_first": difference_kernel(gen, domain_j),
        "kernel_second": difference_kernel(gen, domain_j),
        "operation": _product_operation(domain_j, domain_j),
    }
