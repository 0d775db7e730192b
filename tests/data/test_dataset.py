"""Tests for WaferDataset, splits and batching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import BatchIterator, WaferDataset, stratified_split
from repro.data.patterns import CLASS_NAMES


def make_dataset(counts, size=8, weights=None, names=("A", "B", "C")):
    grids = []
    labels = []
    for label, count in enumerate(counts):
        grids.extend([np.full((size, size), label % 3, dtype=np.uint8)] * count)
        labels.extend([label] * count)
    return WaferDataset(
        np.stack(grids) if grids else np.empty((0, size, size), dtype=np.uint8),
        np.asarray(labels, dtype=np.int64),
        names,
        weights,
    )


class TestValidation:
    def test_rejects_wrong_grid_rank(self):
        with pytest.raises(ValueError):
            WaferDataset(np.zeros((4, 4), dtype=np.uint8), np.zeros(4, dtype=int), ("A",))

    def test_rejects_mismatched_labels(self):
        with pytest.raises(ValueError):
            WaferDataset(
                np.zeros((3, 4, 4), dtype=np.uint8), np.zeros(2, dtype=int), ("A",)
            )

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            WaferDataset(
                np.zeros((2, 4, 4), dtype=np.uint8), np.array([0, 5]), ("A", "B")
            )

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            make_dataset([2, 2, 2], weights=np.ones(3, dtype=np.float32))


class TestAccessors:
    def test_len_and_counts(self):
        dataset = make_dataset([3, 1, 2])
        assert len(dataset) == 6
        assert dataset.class_counts() == {"A": 3, "B": 1, "C": 2}

    def test_counts_include_empty_classes(self):
        dataset = make_dataset([3, 0, 0])
        assert dataset.class_counts() == {"A": 3, "B": 0, "C": 0}

    def test_weights_default_ones(self):
        np.testing.assert_array_equal(make_dataset([2, 0, 0]).weights(), [1.0, 1.0])

    def test_tensors_shape(self):
        dataset = make_dataset([2, 1, 0], size=8)
        assert dataset.tensors().shape == (3, 1, 8, 8)

    def test_map_size(self):
        assert make_dataset([1, 0, 0], size=12).map_size == 12


class TestSubsetFilterMerge:
    def test_subset_carries_weights(self):
        weights = np.array([0.5, 1.0, 0.7], dtype=np.float32)
        dataset = make_dataset([3, 0, 0], weights=weights)
        sub = dataset.subset([2, 0])
        np.testing.assert_allclose(sub.sample_weights, [0.7, 0.5])

    def test_filter_classes_keeps_vocabulary(self):
        dataset = make_dataset([2, 3, 1])
        filtered = dataset.filter_classes(["A", "C"])
        assert filtered.class_names == ("A", "B", "C")
        assert len(filtered) == 3

    def test_filter_classes_relabel(self):
        dataset = make_dataset([2, 3, 1])
        filtered = dataset.filter_classes(["C", "A"], relabel=True)
        assert filtered.class_names == ("C", "A")
        assert filtered.class_counts() == {"C": 1, "A": 2}

    def test_filter_unknown_class_raises(self):
        with pytest.raises(ValueError):
            make_dataset([1, 1, 1]).filter_classes(["Z"])

    def test_merge_concatenates(self):
        a = make_dataset([2, 0, 0])
        b = make_dataset([0, 3, 0])
        merged = a.merge(b)
        assert merged.class_counts() == {"A": 2, "B": 3, "C": 0}

    def test_merge_requires_same_vocabulary(self):
        a = make_dataset([1, 1, 1])
        b = make_dataset([1, 1, 1], names=("X", "Y", "Z"))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_combines_weights(self):
        a = make_dataset([2, 0, 0], weights=np.array([0.5, 0.5], dtype=np.float32))
        b = make_dataset([0, 1, 0])
        merged = a.merge(b)
        np.testing.assert_allclose(merged.weights(), [0.5, 0.5, 1.0])

    def test_shuffled_is_permutation(self):
        dataset = make_dataset([5, 5, 0])
        shuffled = dataset.shuffled(np.random.default_rng(0))
        assert sorted(shuffled.labels.tolist()) == sorted(dataset.labels.tolist())


class TestStratifiedSplit:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            stratified_split(make_dataset([4, 4, 4]), [0.5, 0.4], np.random.default_rng(0))

    def test_fractions_must_be_positive(self):
        with pytest.raises(ValueError):
            stratified_split(make_dataset([4, 4, 4]), [1.5, -0.5], np.random.default_rng(0))

    def test_partition_is_exact(self):
        dataset = make_dataset([10, 20, 30])
        parts = stratified_split(dataset, [0.5, 0.3, 0.2], np.random.default_rng(0))
        assert sum(len(p) for p in parts) == len(dataset)

    def test_every_class_in_every_part_when_large(self):
        dataset = make_dataset([20, 20, 20])
        train, test = stratified_split(dataset, [0.8, 0.2], np.random.default_rng(0))
        assert train.class_counts() == {"A": 16, "B": 16, "C": 16}
        assert test.class_counts() == {"A": 4, "B": 4, "C": 4}

    def test_deterministic_given_rng(self):
        dataset = make_dataset([10, 10, 10])
        a_train, __ = stratified_split(dataset, [0.7, 0.3], np.random.default_rng(5))
        b_train, __ = stratified_split(dataset, [0.7, 0.3], np.random.default_rng(5))
        np.testing.assert_array_equal(a_train.labels, b_train.labels)


class TestBatchIterator:
    def test_yields_all_samples(self):
        dataset = make_dataset([7, 6, 0])
        batches = BatchIterator(dataset, batch_size=4, rng=np.random.default_rng(0))
        seen = sum(len(labels) for __, labels, __ in batches)
        assert seen == 13

    def test_len(self):
        dataset = make_dataset([10, 0, 0])
        assert len(BatchIterator(dataset, batch_size=4)) == 3
        assert len(BatchIterator(dataset, batch_size=4, drop_last=True)) == 2

    def test_drop_last(self):
        dataset = make_dataset([10, 0, 0])
        batches = list(BatchIterator(dataset, batch_size=4, drop_last=True))
        assert all(len(labels) == 4 for __, labels, __ in batches)

    def test_batch_tensor_shape(self):
        dataset = make_dataset([8, 0, 0], size=8)
        inputs, labels, weights = next(iter(BatchIterator(dataset, batch_size=3)))
        assert inputs.shape == (3, 1, 8, 8)
        assert labels.shape == (3,)
        assert weights.shape == (3,)

    def test_no_shuffle_keeps_order(self):
        dataset = make_dataset([3, 3, 0])
        batches = BatchIterator(dataset, batch_size=6, shuffle=False)
        __, labels, __ = next(iter(batches))
        np.testing.assert_array_equal(labels, dataset.labels)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            BatchIterator(make_dataset([2, 0, 0]), batch_size=0)

    def test_weights_follow_samples(self):
        weights = np.linspace(0.1, 1.0, 10).astype(np.float32)
        dataset = make_dataset([10, 0, 0], weights=weights)
        batches = BatchIterator(dataset, batch_size=10, shuffle=False)
        __, __, batch_weights = next(iter(batches))
        np.testing.assert_allclose(batch_weights, weights)

    def test_uniform_fast_path_yields_ones(self):
        dataset = make_dataset([7, 0, 0])
        iterator = BatchIterator(dataset, batch_size=3, shuffle=False)
        assert iterator._uniform
        for __, labels, weights in iterator:
            assert weights.shape == (len(labels),)
            np.testing.assert_array_equal(weights, np.ones(len(labels), dtype=np.float32))

    def test_weighted_dataset_skips_fast_path(self):
        weights = np.linspace(0.1, 1.0, 7).astype(np.float32)
        dataset = make_dataset([7, 0, 0], weights=weights)
        assert not BatchIterator(dataset, batch_size=3)._uniform

    @pytest.mark.parametrize("weighted", [False, True])
    def test_short_final_batch_is_yielded_once(self, weighted):
        """13 maps at batch size 4 leave a 1-map tail, yielded exactly
        once, on both the uniform fast path and the weighted path."""
        weights = (
            np.linspace(0.2, 1.0, 13).astype(np.float32) if weighted else None
        )
        dataset = make_dataset([5, 5, 3], weights=weights)
        iterator = BatchIterator(dataset, batch_size=4, shuffle=False)
        assert iterator._uniform is not weighted
        batches = list(iterator)
        assert [len(labels) for __, labels, __ in batches] == [4, 4, 4, 1]
        np.testing.assert_array_equal(
            np.concatenate([inputs for inputs, __, __ in batches]), dataset.tensors()
        )
        np.testing.assert_array_equal(
            np.concatenate([labels for __, labels, __ in batches]), dataset.labels
        )
        np.testing.assert_array_equal(
            np.concatenate([w for __, __, w in batches]), dataset.weights()
        )


@given(
    st.lists(st.integers(0, 12), min_size=3, max_size=3).filter(lambda c: sum(c) >= 6),
    st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_property_split_preserves_multiset(counts, seed):
    """Property: a stratified split is an exact partition of the data."""
    dataset = make_dataset(counts)
    parts = stratified_split(dataset, [0.6, 0.4], np.random.default_rng(seed))
    combined = sorted(np.concatenate([p.labels for p in parts]).tolist())
    assert combined == sorted(dataset.labels.tolist())
