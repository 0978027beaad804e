import math

import pytest

import meankit.domain as domain_module
from meankit import (
    IntervalDomain,
    MeanKind,
    all_reals,
    eliminate_zero_weights,
    make_weighted_sample,
    open_interval,
    positive_reals,
    shuffle_merge,
)
from meankit.domain import check_tolerance, probe_points
from meankit.errors import (
    AllWeightsZero,
    EntryOutOfDomain,
    LengthMismatch,
    MismatchedEntries,
    NegativeWeight,
)


def test_minimal_valid_sample():
    s = make_weighted_sample([1, 2], [1, 1], positive_reals())
    assert s.entries == (1.0, 2.0)
    assert s.weights == (1.0, 1.0)
    assert s.hull() == (1.0, 2.0)


def test_all_weights_zero_rejected():
    with pytest.raises(AllWeightsZero):
        make_weighted_sample([1, 2], [0, 0], positive_reals())


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeight):
        make_weighted_sample([1, 2], [1, -1], positive_reals())


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatch):
        make_weighted_sample([1, 2, 3], [1, 1], positive_reals())
    with pytest.raises(LengthMismatch):
        make_weighted_sample([], [], positive_reals())


def test_entry_outside_domain_rejected():
    with pytest.raises(EntryOutOfDomain):
        make_weighted_sample([-1, 2], [1, 1], positive_reals())
    with pytest.raises(EntryOutOfDomain):
        make_weighted_sample([0.0, 2], [1, 1], positive_reals())  # open at 0


@pytest.mark.parametrize(
    "entries, weights, domain",
    [
        ([1, 2.5, 3], [1, 2, 0.5], positive_reals()),
        ([2.0, math.nan, 3.0], [1, 1, 1], positive_reals()),
        ([math.nan, 2.0], [1, 1], positive_reals()),
        ([1.0, 2.0], [1, math.nan], positive_reals()),
        ([1.0, 2.0], [0.0, 1.0], positive_reals()),
        ([1.0, 2.0], [math.inf, 1.0], positive_reals()),
        ([1e308, 1e308], [1, 1], positive_reals()),
        ([1.0, 2.0], [1e308, 1e308], positive_reals()),
        ([1.0, math.inf], [1, 1], all_reals()),
        ([3.0, 5.0, -1.0, 9.0], [1, -2, 1, 1], open_interval(0.0, 4.0)),
        ([3.0, 5.0, -1.0, 9.0], [1, 1, 1, 1], open_interval(0.0, 4.0)),
        ([1.0, 2.0], [0, 0], positive_reals()),
    ],
)
def test_reduced_check_agrees_with_value_by_value(entries, weights, domain):
    # float_sample returns at once from a hull-end, least-weight and
    # finite-sum check; the value-by-value checks must give the same sample
    # or raise the same error for the same value.
    def outcome(make):
        try:
            s = make(tuple(map(float, entries)), tuple(map(float, weights)), domain)
        except Exception as exc:
            return type(exc), str(exc)
        return repr((s.entries, s.weights, s.domain))

    assert outcome(domain_module.float_sample) == outcome(domain_module._checked_sample)


def test_interval_membership_respects_openness():
    unit = IntervalDomain(0, 1)
    assert not unit.contains(0.0) and not unit.contains(1.0)
    assert unit.contains(0.5)
    assert positive_reals().starts_at_zero
    assert not open_interval(0.5, 2).starts_at_zero


def test_interval_rejects_empty_or_nan():
    with pytest.raises(ValueError):
        IntervalDomain(2, 1)
    with pytest.raises(ValueError):
        IntervalDomain(math.nan, 1)


@pytest.mark.parametrize("value", [0.0, -0.0, 1e-300, 1e-6, 1e300])
def test_tolerance_rule_passes_finite_nonnegative_values(value):
    assert check_tolerance("tol", value) is value


@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, -1e-300])
def test_tolerance_rule_names_the_tolerance(value):
    # limit_at_zero, SemidevMeanConfig and the CLI's --tol word their
    # refusals through this one rule.
    with pytest.raises(ValueError) as err:
        check_tolerance("refine_tol", value)
    assert str(err.value) == f"refine_tol must be finite and nonnegative, got {value!r}"


def test_shuffle_merge_interleaves():
    dom = positive_reals()
    s1 = make_weighted_sample([1, 2], [1, 0], dom)
    s2 = make_weighted_sample([1, 2], [0, 1], dom)
    merged = shuffle_merge(s1, s2)
    assert merged.entries == (1.0, 1.0, 2.0, 2.0)
    assert merged.weights == (1.0, 0.0, 0.0, 1.0)


def test_shuffle_merge_single_entry():
    dom = positive_reals()
    merged = shuffle_merge(
        make_weighted_sample([5], [2], dom), make_weighted_sample([5], [3], dom)
    )
    assert merged.entries == (5.0, 5.0)
    assert merged.weights == (2.0, 3.0)


def test_shuffle_merge_rejects_mismatched_entries():
    dom = positive_reals()
    with pytest.raises(MismatchedEntries):
        shuffle_merge(
            make_weighted_sample([1, 2], [1, 1], dom),
            make_weighted_sample([1, 3], [1, 1], dom),
        )


def test_eliminate_zero_weights():
    dom = positive_reals()
    s = make_weighted_sample([1, 2, 3], [1, 0, 2], dom)
    reduced = eliminate_zero_weights(s)
    assert reduced.entries == (1.0, 3.0)
    assert reduced.weights == (1.0, 2.0)
    untouched = eliminate_zero_weights(make_weighted_sample([4], [1], dom))
    assert untouched.entries == (4.0,)
    dropped = eliminate_zero_weights(make_weighted_sample([1, 2], [0, 5], dom))
    assert dropped.entries == (2.0,)
    assert dropped.weights == (5.0,)


def test_mean_kind_labels_round_trip():
    for kind in MeanKind:
        assert MeanKind(kind.value) is kind
    with pytest.raises(ValueError):
        MeanKind("sideways")


def test_mean_kinds_hash_by_identity():
    # Members are singletons, so the object hash (no Python-level __hash__)
    # keys them; a kind found by its label finds the same entry.
    assert MeanKind.__hash__ is object.__hash__
    table = {kind: kind.value for kind in MeanKind}
    for kind in MeanKind:
        assert table[MeanKind(kind.value)] == kind.value


def test_probe_points_stay_interior():
    for dom in (positive_reals(), all_reals(), open_interval(0, 2), open_interval(-3, -1)):
        pts = probe_points(dom, 17)
        assert len(pts) == 17
        assert all(dom.contains(p) for p in pts)
        assert all(a < b for a, b in zip(pts, pts[1:]))


def test_scaled_sample_revalidates():
    dom = open_interval(0, 2)
    s = make_weighted_sample([0.5, 1.0], [1, 1], dom)
    assert s.scaled(0.5).entries == (0.25, 0.5)
    with pytest.raises(EntryOutOfDomain):
        s.scaled(3.0)


def test_scaled_sample_keeps_the_weights_and_checks_each_entry():
    dom = open_interval(0, 2)
    s = make_weighted_sample([0.5, 1.0, 1.5], [1.0, 0.0, 2.5], dom)
    assert s.scaled(1.25) == make_weighted_sample([0.625, 1.25, 1.875], s.weights, dom)
    assert s.scaled(2.0, positive_reals()) == make_weighted_sample([1.0, 2.0, 3.0], s.weights, positive_reals())
    # An entry leaving the domain, or overflowing to inf (outside every
    # domain), raises what validating the scaled entries from scratch raises.
    huge = make_weighted_sample([1.0, 1e308], [1.0, 1.0], all_reals())
    for sample, t, domain in ((s, 2.0, None), (s, -1.0, None), (huge, 10.0, None), (s, 3.0, open_interval(0, 4))):
        with pytest.raises(EntryOutOfDomain) as scaled:
            sample.scaled(t, domain)
        with pytest.raises(EntryOutOfDomain) as made:
            make_weighted_sample([t * x for x in sample.entries], sample.weights, domain or sample.domain)
        assert str(scaled.value) == str(made.value)
    with pytest.raises(EntryOutOfDomain, match="entry inf outside"):
        huge.scaled(10.0)
