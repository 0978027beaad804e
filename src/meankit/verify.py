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
    float_sample,
    make_weighted_sample,
    open_interval,
    positive_reals,
    probe_points,
    sign,
)
from .errors import MeanKitError, NotNormalizable, SignPropertyViolated
from .expr import Difference, Kernel2, ScalarFunction, catalog_generator, difference_kernel
from .homogenize import (
    SIGN_PROBE_RATIOS,
    deviation_handle,
    homogeneous_kernels,
    homogenization_profile,
    local_homogenization,
    local_limit,
    ratio_kernel_from_profile,
)
from .limits import LIMIT_REL_TOL
from .semideviation import (
    SemidevMeanConfig,
    check_semideviation,
    normalize_kernel,
    semideviation_mean,
    semideviation_means,
)

MEAN_TOL = 1e-7
KERNEL_TOL = 1e-9

#: Solver configuration of the suites (accuracy set by refine_tol, not
#: the grid, for the single-crossing kernels the suites use).
SUITE_CONFIG = SemidevMeanConfig(grid_size=128)

#: Solver configuration of the scale-profile suites (tei, cei).
PROFILE_SUITE_CONFIG = SemidevMeanConfig(grid_size=64)

#: Solver configuration of lemma-lim, whose samples weigh one entry 10^6
#: times the other.
LEMMA_LIM_CONFIG = SemidevMeanConfig(grid_size=256, refine_tol=1e-15)

#: Default range of the factor domains J = K of the minkowski and hoelder
#: presets.
FACTOR_RANGE = (0.5, 4.0)

KINDS = (MeanKind.LOWER_WEAK, MeanKind.LOWER_STRICT, MeanKind.UPPER_STRICT, MeanKind.UPPER_WEAK)


def mean_tol(value: float) -> float:
    return MEAN_TOL * (1.0 + abs(value))


def limit_tol(value: float) -> float:
    return LIMIT_REL_TOL * (1.0 + abs(value))


# --- deterministic sample plans ----------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    """Seeded description of a random sample stream; one seed, one stream
    of samples, and ``stream(k)`` for each suite's other draws.

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
    ) -> Iterator[tuple[list[tuple[float, ...]], tuple[float, ...]]]:
        """Per sample, from one stream: its length, then one entry tuple per
        range, then the shared weights."""
        rng = random.Random(self.seed)
        for i in range(self.n_samples):
            n = rng.randint(*self.n_range)
            entry_tuples = [tuple([rng.uniform(lo, hi) for _ in range(n)]) for lo, hi in ranges]
            weights = tuple([rng.uniform(*self.weight_range) for _ in range(n)])
            if i % 20 == 19:
                entry_tuples = [(entries[0],) * n for entries in entry_tuples]
            yield entry_tuples, weights

    def stream(self, k: int) -> random.Random:
        """Stream k of the plan's seed, for draws beside the samples."""
        return random.Random(self.seed * 1_000_003 + k)

    def samples(self, domain: IntervalDomain) -> list[WeightedSample]:
        return [
            float_sample(entries, weights, domain)
            for (entries,), weights in self._draws([self.resolved_entry_range(domain)])
        ]

    def sample_pairs(
        self, domain: IntervalDomain, second_domain: IntervalDomain | None = None
    ) -> list[tuple[WeightedSample, WeightedSample]]:
        """Pairs sharing length and weights (second entries, in
        ``second_domain`` or else ``domain``, drawn right after the first in
        the same stream); the two samples share one weights tuple."""
        dom2 = second_domain or domain
        ranges = [self.resolved_entry_range(domain), self.resolved_entry_range(dom2)]
        return [
            (float_sample(first, weights, domain), float_sample(second, weights, dom2))
            for (first, second), weights in self._draws(ranges)
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
    return {"mean_rel": MEAN_TOL, "kernel_abs": KERNEL_TOL, "limit_rel": LIMIT_REL_TOL}


def _assemble(theorem_id: str, conditions: list[Condition]) -> Report:
    overall = "pass" if all(c.holds for c in conditions) else "fail"
    return Report(theorem_id, overall, _default_tolerances(), conditions)


def _inconclusive(theorem_id: str, reason: str) -> Report:
    admission = Condition(name="admission", holds=False, checked=1, note=reason)
    return Report(theorem_id, "inconclusive", _default_tolerances(), [admission])


def _sample_witness(index: int, sample: WeightedSample, **extra: Any) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "sample_index": index,
        "entries": list(sample.entries),
        "weights": list(sample.weights),
    }
    doc.update(extra)
    return doc


# --- ordering / symmetry suite -----------------------------------------------------------


def verify_sandwich(kernel: Kernel2, plan: SamplePlan) -> Report:
    """Mean-value sandwich and symmetry of the four sign-change means."""
    witness = check_semideviation(kernel, kernel.domain_x, grid=16)
    if witness is not None:
        return _inconclusive(
            "sandwich", f"kernel {kernel.name} fails the sign admission: witness {witness}"
        )
    chain = new_condition("ordering_chain", "min <= lower-weak <= upper-weak <= max")
    inner = new_condition("inner_bounds", "strict kinds inside [lower-weak, upper-weak]")
    symmetry = new_condition("symmetry", "invariant under entry/weight permutation")
    perm_rng = plan.stream(1)
    for idx, sample in enumerate(plan.samples(kernel.domain_x)):
        means = semideviation_means(kernel, sample, KINDS, SUITE_CONFIG)
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
        perm_means = semideviation_means(kernel, permuted, KINDS, SUITE_CONFIG)
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
    tol = 1e-3 * max(1.0, abs(target))
    for cond, kind in ((lower, MeanKind.LOWER_WEAK), (upper, MeanKind.UPPER_WEAK)):
        errors = []
        for n in LEMMA_LIM_WEIGHTS:
            sample = make_weighted_sample((x, y), (1.0, float(n)), kernel.domain_x)
            value = semideviation_mean(kernel, sample, kind, LEMMA_LIM_CONFIG)
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
    kernel_low: Kernel2, kernel_high: Kernel2, plan: SamplePlan, grid: int = 24
) -> Report:
    """Pointwise order of normalized kernels against the order of their means.

    Condition A: normalized kernels ordered on an off-diagonal grid.
    Condition B: all four mean kinds ordered on random samples.
    Condition C: lower-weak of the first <= upper-weak of the second (the
    weakest link).  A sample violating B while A holds (or C while B holds)
    is flagged as an implication-consistency defect, i.e. a solver bug.
    """
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
        low_means = semideviation_means(kernel_low, sample, KINDS, SUITE_CONFIG)
        high_means = semideviation_means(kernel_high, sample, KINDS, SUITE_CONFIG)
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


def _midpoint_sides(kernel: Kernel2, x: float, y: float, u: float, v: float) -> tuple[float, float]:
    """The two sides of midpoint concavity of ``kernel`` at (x, u) and (y, v):
    K((x + y)/2, (u + v)/2) and (K(x, u) + K(y, v))/2."""
    return kernel.fn(0.5 * (x + y), 0.5 * (u + v)), 0.5 * (kernel.fn(x, u) + kernel.fn(y, v))


def _midpoint_concave_on_box(kernel: Kernel2, lo: float, hi: float) -> bool:
    """Midpoint concavity of ``kernel`` on a 6-point grid of [lo, hi]^2."""
    pts = [lo + j * (hi - lo) / 5 for j in range(6)]
    for x in pts:
        for u in pts:
            for y in pts:
                for v in pts:
                    lhs, rhs = _midpoint_sides(kernel, x, y, u, v)
                    if lhs < rhs - KERNEL_TOL:
                        return False
    return True


def verify_jensen(kernel: Kernel2, plan: SamplePlan) -> Report:
    """Computable faces of the concavity equivalence on shared inputs.

    Face "kernel_midpoint_concavity": the normalized kernel on random
    quadruples.  Face "mixed_inequality": upper-weak at the midpoint sample
    dominates the average of lower-weak values.  Faces "mean_concavity_*":
    midpoint concavity of each kind.  The faces must agree: a sample pair
    whose hull satisfies the kernel face but violates a mean face beyond
    tolerance is a solver defect.
    """
    try:
        star = normalize_kernel(kernel)
    except NotNormalizable as exc:
        return _inconclusive("jensen", str(exc))
    domain = kernel.domain_x
    lo, hi = plan.resolved_entry_range(domain)
    quad_rng = plan.stream(7)
    kernel_face = new_condition("kernel_midpoint_concavity", "normalized kernel, random quadruples")
    for _ in range(max(plan.n_samples, 100)):
        x, y = quad_rng.uniform(lo, hi), quad_rng.uniform(lo, hi)
        u, v = quad_rng.uniform(lo, hi), quad_rng.uniform(lo, hi)
        lhs, rhs = _midpoint_sides(star, x, y, u, v)
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
        means1 = semideviation_means(kernel, s1, KINDS, SUITE_CONFIG)
        means2 = semideviation_means(kernel, s2, KINDS, SUITE_CONFIG)
        means_mid = semideviation_means(kernel, midpoint, KINDS, SUITE_CONFIG)
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


#: The strict kinds whose local homogenizations tei bounds.
_STRICT_KINDS = (MeanKind.UPPER_STRICT, MeanKind.LOWER_STRICT)


def _strict_means_by_scale(
    kernel: Kernel2, sample: WeightedSample
) -> Callable[[float], dict[MeanKind, float]]:
    """t -> the upper-strict and lower-strict means of the sample scaled by
    t into the kernel's domain, from one solve per t (``semideviation_means``
    gives each kind the value it gives alone), memoized by t."""
    solves: dict[float, dict[MeanKind, float]] = {}

    def means(t: float) -> dict[MeanKind, float]:
        found = solves.get(t)
        if found is None:
            scaled = sample.scaled(t, kernel.domain_x)
            found = solves[t] = semideviation_means(kernel, scaled, _STRICT_KINDS, PROFILE_SUITE_CONFIG)
        return found

    return means


def verify_tei(kernel: Kernel2, plan: SamplePlan) -> Report:
    """Scale-profile bounds on the local homogenizations of sign-change means.

    With the lower / upper ratio kernels of ``homogeneous_kernels`` (from the
    liminf / limsup scale profiles of the normalized kernel): lower-weak mean
    of the lower one <= lower homogenization of the upper-strict mean, and
    the upper homogenization of the lower-strict mean <= upper-weak mean of
    the upper one.  A kernel that cannot be normalized, or whose profiles
    fail the sign probe, makes the report inconclusive with that error's
    message.  Both local scans of a sample read one solve of both strict
    means per scale.
    """
    try:
        low_ratio, high_ratio = homogeneous_kernels(kernel)
    except (NotNormalizable, SignPropertyViolated) as exc:
        return _inconclusive("tei", str(exc))
    lower_bound = new_condition(
        "lower_bound", "profile mean <= lower homogenization of upper-strict mean"
    )
    upper_bound = new_condition(
        "upper_bound", "upper homogenization of lower-strict mean <= profile mean"
    )
    for idx, sample in enumerate(plan.samples(kernel.domain_x)):
        positive = sample.with_domain(positive_reals())
        means = _strict_means_by_scale(kernel, positive)
        lhs = semideviation_mean(low_ratio, positive, MeanKind.LOWER_WEAK, PROFILE_SUITE_CONFIG)
        low_est = local_limit(lambda t: means(t)[MeanKind.UPPER_STRICT], positive, kernel.domain_x)
        lower_bound.record(
            lhs <= low_est.tail_min + limit_tol(low_est.tail_min),
            lambda: _sample_witness(idx, sample, profile_mean=lhs, homogenization=low_est.tail_min),
        )
        rhs = semideviation_mean(high_ratio, positive, MeanKind.UPPER_WEAK, PROFILE_SUITE_CONFIG)
        high_est = local_limit(lambda t: means(t)[MeanKind.LOWER_STRICT], positive, kernel.domain_x)
        upper_bound.record(
            high_est.tail_max <= rhs + limit_tol(rhs),
            lambda: _sample_witness(idx, sample, homogenization=high_est.tail_max, profile_mean=rhs),
        )
    return _assemble("tei", [lower_bound, upper_bound])


def verify_cei(kernel: Kernel2, plan: SamplePlan) -> Report:
    """Collapse of the scale construction for kernels with concave normalization.

    Hypotheses (probed; failure makes the report inconclusive): the
    normalized kernel is midpoint concave and vanishes along the scaled
    diagonal.  Checks: structure of the scale profile (finite, concave,
    nondecreasing, strictly increasing left of 1, sign of r - 1); equality of
    the profile mean with both local homogenizations of the deviation mean;
    coordinatewise monotonicity of the deviation mean.
    """
    try:
        star = normalize_kernel(kernel)
    except NotNormalizable as exc:
        return _inconclusive("cei", str(exc))
    domain = kernel.domain_x
    lo, hi = plan.resolved_entry_range(domain)
    probe_rng = plan.stream(23)
    for _ in range(200):
        x, y = probe_rng.uniform(lo, hi), probe_rng.uniform(lo, hi)
        u, v = probe_rng.uniform(lo, hi), probe_rng.uniform(lo, hi)
        lhs, rhs = _midpoint_sides(star, x, y, u, v)
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
    dev_handle = deviation_handle(kernel)
    bump_rng = plan.stream(41)
    for idx, sample in enumerate(plan.samples(domain)):
        positive = sample.with_domain(positive_reals())
        est = local_homogenization(dev_handle, positive)
        collapse.record(
            est.spread <= limit_tol(est.estimate),
            lambda: _sample_witness(idx, sample, tail_min=est.tail_min, tail_max=est.tail_max),
        )
        profile_mean = semideviation_mean(ratio_k, positive, MeanKind.LOWER_WEAK, PROFILE_SUITE_CONFIG)
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
    suite_label: str = "homi",
) -> Report:
    """Pointwise characterization of operation-subadditivity of means.

    Condition "pointwise": K_I*(f(p, q), f(u, v)) <= d1f(u, v) K_J*(p, u)
    + d2f(u, v) K_K*(q, v) on a grid^4 lattice.  Each mean-level condition
    compares one kind of the result's mean with f of one kind of each
    argument's mean: in ``monotone_mode`` (operation nondecreasing in each
    slot, probed) the four kind-aligned inequalities and lower-weak against
    upper-weak; otherwise the lower-weak mean of the result against all
    sixteen kind pairs.  A mean-level failure while the pointwise condition
    holds is an implication-consistency defect.

    Before the lattice loop, per-pair tables (grid^2 evaluations each) are
    built in this order: the two partials of f (which the monotonicity probe
    reads), f itself, K_J*, K_K*, then, at every pair where f stays in the
    result domain, g(f(a, b)) if the result kernel's structure is
    ``Difference(g)``, and the result kernel's diagonal slope at f(a, b).
    Each of the grid^4 points then costs (g(f(p, q)) - g(f(u, v))) /
    slope(f(u, v)), or K_I(f(p, q), f(u, v)) / slope(f(u, v)) without that
    structure or where some difference of the g table is not finite: both
    are the floats of K_I*.  Any other result kernel thus
    evaluates its slopes in the table, before the loop.  A kernel or operation that raises
    at several pairs therefore names the first pair in table order, and
    every table entry is evaluated, also at pairs whose lattice points are
    all skipped because f leaves the result domain.  The lattice's memory is
    O(grid^2).
    """
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

    # Lattice tables indexed by grid index: the partials at (u, v), f(a, b)
    # (None when it leaves the result domain), K_J*(p, u), K_K*(q, v), and
    # g and the result kernel's slope at f(a, b).  normalize_kernel's
    # fn(x, y) is kernel.fn(x, y) / fn.slope(y), and a difference kernel's
    # fn(x, y) is g(x) - g(y).
    d1s = [[operation.partial1(u, v) for v in pts_k] for u in pts_j]
    d2s = [[operation.partial2(u, v) for v in pts_k] for u in pts_j]
    result_domain = kernel_result.domain_x
    op_values = [[operation.fn(a, b) for b in pts_k] for a in pts_j]
    op_values = [[f if result_domain.contains(f) else None for f in row] for row in op_values]
    k_first = [[star_first.fn(p, u) for u in pts_j] for p in pts_j]
    k_second = [[star_second.fn(q, v) for v in pts_k] for q in pts_k]
    g = kernel_result.structure.f.fn if isinstance(kernel_result.structure, Difference) else None
    g_values = [[None if f is None or g is None else g(f) for f in row] for row in op_values]
    g_finite = [v for row in g_values for v in row if v is not None]
    if g_finite and not math.isfinite(max(g_finite) - min(g_finite)):
        # Some g(f(p, q)) - g(f(u, v)) is not finite, where K_I may raise.
        g = None
    slope = star_result.fn.slope
    slopes = [[None if f is None else slope(f) for f in row] for row in op_values]

    conditions: list[Condition] = []
    if monotone_mode:
        partials = new_condition("operation_monotone", "partials >= 0, sum > 0 on the grid")
        for u, d1_row, d2_row in zip(pts_j, d1s, d2s):
            for v, d1, d2 in zip(pts_k, d1_row, d2_row):
                partials.record(
                    d1 >= -KERNEL_TOL and d2 >= -KERNEL_TOL and d1 + d2 > KERNEL_TOL,
                    lambda: {"u": u, "v": v, "d1": d1, "d2": d2},
                )
        conditions.append(partials)

    # The count, the largest excess and the first witness stay in locals and
    # are written to ``pointwise`` once, as ``record`` would write them.
    pointwise = new_condition("pointwise", "normalized-kernel inequality on the grid^4 lattice")
    checked = 0
    max_excess: float | None = None
    witness: dict[str, Any] | None = None
    for p, kj_row, fp_row, gp_row in zip(pts_j, k_first, op_values, g_values):
        for u, kj, fu_row, gu_row, su_row, d1_row, d2_row in zip(
            pts_j, kj_row, op_values, g_values, slopes, d1s, d2s
        ):
            for q, fp, gp, kk_row in zip(pts_k, fp_row, gp_row, k_second):
                if fp is None:
                    continue
                for v, fu, gu, su, d1, d2, kk in zip(pts_k, fu_row, gu_row, su_row, d1_row, d2_row, kk_row):
                    if fu is None:
                        continue
                    lhs = (gp - gu if g is not None else kernel_result.fn(fp, fu)) / su
                    rhs = d1 * kj + d2 * kk
                    checked += 1
                    excess = lhs - rhs
                    if max_excess is None or excess > max_excess:
                        max_excess = excess
                    if witness is None and not lhs <= rhs + KERNEL_TOL:
                        witness = {"p": p, "q": q, "u": u, "v": v, "lhs": lhs, "rhs": rhs}
    pointwise.checked, pointwise.max_excess = checked, max_excess
    if witness is not None:
        pointwise.holds, pointwise.witness = False, witness
    conditions.append(pointwise)

    # (condition, result kind, first kind, second kind, witness fields)
    lower_weak, upper_weak = MeanKind.LOWER_WEAK, MeanKind.UPPER_WEAK
    if monotone_mode:
        result_kinds = KINDS
        checks = [
            (new_condition(f"aligned_{k.value}", "same kind on both sides"), k, k, k, {"kind": k.value})
            for k in KINDS
        ]
        checks.append(
            (new_condition("weakest_pair", "lower-weak result vs upper-weak arguments"),
             lower_weak, upper_weak, upper_weak, {})
        )
    else:
        result_kinds = (lower_weak,)
        checks = [
            (new_condition(f"pair_{m.value}__{n.value}"), lower_weak, m, n, {"kinds": [m.value, n.value]})
            for m in KINDS
            for n in KINDS
        ]
    any_mean_violation = False
    for idx, (sx, sy_k) in enumerate(plan.sample_pairs(kernel_first.domain_x, kernel_second.domain_x)):
        combined_entries = [operation.fn(a, b) for a, b in zip(sx.entries, sy_k.entries)]
        combined = make_weighted_sample(combined_entries, sx.weights, result_domain)
        first_means = semideviation_means(kernel_first, sx, KINDS, SUITE_CONFIG)
        second_means = semideviation_means(kernel_second, sy_k, KINDS, SUITE_CONFIG)
        result_means = semideviation_means(kernel_result, combined, result_kinds, SUITE_CONFIG)
        for cond, r, m, n, fields in checks:
            value = result_means[r]
            bound = operation.fn(first_means[m], second_means[n])
            ok = value <= bound + mean_tol(bound)
            any_mean_violation |= not ok
            cond.record(
                ok,
                lambda: _sample_witness(
                    idx, sx, entries_second=list(sy_k.entries), **fields, result_mean=value, bound=bound
                ),
                excess=value - bound if monotone_mode else None,
            )
    conditions.extend(cond for cond, *_ in checks)
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


def _preset(
    generator: ScalarFunction,
    factor_range: tuple[float, float],
    name: str,
    fn: Callable[[float, float], float],
    deriv1: Callable[[float, float], float],
    deriv2: Callable[[float, float], float],
) -> dict[str, Any]:
    """The difference kernel of ``generator`` on J = K = ``factor_range`` and
    on I = (fn(lo, lo), fn(hi, hi)), and the operation fn from J x K to I."""
    lo, hi = factor_range
    domain_j = open_interval(lo, hi)
    domain_i = open_interval(fn(lo, lo), fn(hi, hi))
    return {
        "kernel_result": difference_kernel(generator, domain_i),
        "kernel_first": difference_kernel(generator, domain_j),
        "kernel_second": difference_kernel(generator, domain_j),
        "operation": Kernel2(name, fn, domain_j, domain_j, deriv1=deriv1, deriv2=deriv2),
    }


def minkowski_preset(
    generator: ScalarFunction | None = None,
    factor_range: tuple[float, float] = FACTOR_RANGE,
) -> dict[str, Any]:
    """Additivity setup: same difference kernel on J, K, and I = J + K
    (default generator: the identity, power:1)."""
    return _preset(
        generator or catalog_generator("power", 1.0), factor_range, "sum",
        lambda x, y: x + y, lambda x, y: 1.0, lambda x, y: 1.0,
    )


def hoelder_preset(
    generator: ScalarFunction | None = None,
    factor_range: tuple[float, float] = FACTOR_RANGE,
) -> dict[str, Any]:
    """Multiplicativity setup: same difference kernel on J, K, and I = J * K
    (default generator: log, power:0)."""
    return _preset(
        generator or catalog_generator("power", 0.0), factor_range, "product",
        lambda x, y: x * y, lambda x, y: y, lambda x, y: x,
    )
