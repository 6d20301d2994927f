import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capfuse import data
from capfuse.data import (
    EOS_ID,
    MASK_ID,
    PAD_ID,
    START_ID,
    UNK_ID,
    CaptionExample,
    Vocab,
    build_vocab,
    check_scene_consistency,
    detokenize,
    generate_dataset,
    read_captions,
    strip_specials,
    tokenize,
    write_captions,
)
from capfuse.errors import ConfigError, InputError, ParseError
from capfuse.models import ModelConfig


def small_dataset(seed=0, n=24):
    return generate_dataset(seed, n, refs_per_scene=3,
                            split_fractions=(0.5, 0.25, 0.25))


def full_vocab(examples):
    """The vocabulary of a corpus in which every word of the examples occurs
    at least MIN_COUNT times, so that no word maps to <unk>."""
    return build_vocab(examples * data.MIN_COUNT)


class TestGeneration:
    def test_two_generations_from_one_seed_are_identical(self):
        a, b = small_dataset(), small_dataset()
        assert len(a) == len(b) == 24
        for x, y in zip(a, b):
            assert (x.id, x.split, x.references, x.scene) == (y.id, y.split, y.references, y.scene)
            assert x.features.tobytes() == y.features.tobytes()

    def test_scene_independent_of_corpus_size(self):
        small = generate_dataset(9, 12, 3, (0.5, 0.25, 0.25))
        large = generate_dataset(9, 20, 3, (0.5, 0.25, 0.25))
        for ex_s, ex_l in zip(small, large):
            assert ex_s.references == ex_l.references
            assert np.array_equal(ex_s.features, ex_l.features)

    def test_split_partition(self):
        examples = generate_dataset(1, 40, 3, (0.5, 0.25, 0.25))
        by_split = {}
        for ex in examples:
            by_split.setdefault(ex.split, []).append(ex.id)
        assert len(by_split["train"]) == 20
        assert len(by_split["val"]) == 10
        assert len(by_split["test"]) == 10
        all_ids = sum(by_split.values(), [])
        assert len(all_ids) == len(set(all_ids)) == 40

    def test_attribute_consistency_everywhere(self):
        examples = generate_dataset(7, 120, 5, (0.5, 0.25, 0.25))
        assert all(check_scene_consistency(ex) for ex in examples)

    def test_reference_count_and_distinctness(self):
        for ex in small_dataset(seed=3):
            assert len(ex.references) == 3
            assert len(set(ex.references)) == 3

    def test_relation_present_iff_multiple_objects(self):
        for ex in generate_dataset(5, 60, 3, (0.5, 0.25, 0.25)):
            if len(ex.scene.objects) >= 2:
                assert ex.scene.relation in data.RELATIONS
            else:
                assert ex.scene.relation is None

    def test_bad_fractions_rejected(self):
        with pytest.raises(ConfigError):
            generate_dataset(0, 20, 3, (0.6, 0.25, 0.25))

    def test_nan_fraction_rejected(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            generate_dataset(0, 20, 3, (float("nan"), 0.5, 0.5))

    @pytest.mark.parametrize("fraction", ["0.5", None])
    def test_a_fraction_that_is_not_a_number_is_rejected(self, fraction):
        with pytest.raises(ConfigError, match="^split fractions must be non-negative, got "):
            generate_dataset(0, 20, 3, (fraction, 0.25, 0.25))

    @pytest.mark.parametrize("seed, n_scenes", [(0, 5), (-1, 20), (1.5, 20), (0, 20.5),
                                                (0, -20), ("0", 20), (None, 20)], ids=repr)
    def test_bad_seed_or_scene_count_rejected(self, seed, n_scenes):
        with pytest.raises(ConfigError, match="seed" if n_scenes == 20 else "n_scenes"):
            generate_dataset(seed, n_scenes, 3, (0.5, 0.25, 0.25))

    @pytest.mark.parametrize("refs_per_scene", [2, 6, 3.5])
    def test_refs_per_scene_outside_3_to_5_rejected(self, refs_per_scene):
        with pytest.raises(ConfigError, match="refs_per_scene"):
            generate_dataset(0, 20, refs_per_scene)

    def test_feature_noise_deterministic(self):
        a = generate_dataset(11, 12, 3, (0.5, 0.25, 0.25))
        b = generate_dataset(11, 12, 3, (0.5, 0.25, 0.25))
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)

    def test_features_are_the_one_hot_layout_plus_noise_of_scale_noise(self):
        examples = generate_dataset(4, 200, 3, (0.5, 0.25, 0.25))
        features = np.stack([ex.features for ex in examples])
        assert features.shape == (200, data.FEATURE_DIM)
        # noise of 0.05 never reaches 0.5, so rounding recovers the one-hot
        one_hot = np.round(features)
        assert set(np.unique(one_hot)) <= {0.0, 1.0}
        assert not one_hot[:, data.BASE_FEATURE_DIM:].any()
        assert (one_hot[:, ::data.SLOT_DIM][:, 0] == 1.0).all()  # slot 0 always present
        noise = features - one_hot
        assert abs(noise.std() - data.NOISE) <= 0.1 * data.NOISE
        assert abs(noise.mean()) <= 0.1 * data.NOISE

    def test_the_default_model_takes_the_generated_feature_width(self):
        cfg = ModelConfig(vocab_size=10)
        assert cfg.feature_dim == data.FEATURE_DIM
        assert small_dataset()[0].features.shape == (cfg.feature_dim,)


class TestVocab:
    def test_min_count_threshold(self):
        ex = CaptionExample("x", "train", np.zeros(1), ["a a a a a b b b b"])
        vocab = build_vocab([ex])
        assert data.MIN_COUNT == 5
        assert "a" in vocab.index
        assert "b" not in vocab.index
        assert tokenize("b", vocab) == [START_ID, UNK_ID, EOS_ID]

    @pytest.mark.parametrize("count", [1, data.MIN_COUNT - 1, data.MIN_COUNT,
                                       data.MIN_COUNT + 1])
    def test_a_word_gets_an_id_iff_it_occurs_min_count_times(self, count):
        # the occurrences are counted across references and across examples
        refs = ["w"] * count
        examples = [CaptionExample(str(i), "train", np.zeros(1), refs[i::2] or ["x"])
                    for i in range(2)]
        vocab = build_vocab(examples)
        assert ("w" in vocab.index) == (count >= data.MIN_COUNT)
        assert (tokenize("w", vocab)[1] == UNK_ID) == (count < data.MIN_COUNT)

    def test_a_corpus_of_min_count_copies_has_no_unks(self):
        train = [ex for ex in small_dataset(seed=2) if ex.split == "train"]
        vocab = full_vocab(train)
        assert len(vocab) > len(build_vocab(train))
        for ex in train:
            for ref in ex.references:
                assert UNK_ID not in tokenize(ref, vocab)[1:-1]

    def test_round_trip_token_ids(self):
        vocab = full_vocab(small_dataset())
        for tok in vocab.tokens:
            assert vocab.token_of(vocab.id_of(tok)) == tok

    @pytest.mark.parametrize("bad", [-1, -7, 7, 9])
    def test_token_of_an_id_outside_the_vocabulary_raises(self, bad):
        vocab = Vocab(data.SPECIALS + ["a", "b"])
        with pytest.raises(InputError, match=f"token id {bad} is outside the vocabulary of 7"):
            vocab.token_of(bad)

    def test_token_of_takes_numpy_integers_and_rejects_other_numbers(self):
        vocab = Vocab(data.SPECIALS + ["a", "b"])
        with pytest.raises(InputError, match="token id 5.0 is not an integer"):
            vocab.token_of(5.0)
        assert vocab.token_of(np.int64(6)) == "b"

    def test_specials_have_fixed_ids(self):
        vocab = build_vocab(small_dataset())
        assert vocab.tokens[:5] == ["<pad>", "<start>", "<eos>", "<unk>", "[MASK]"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError):
            build_vocab([])


class TestTokenize:
    def test_wraps_and_lowercases(self):
        vocab = Vocab(data.SPECIALS + ["a", "red", "circle"])
        ids = tokenize("A Red Circle", vocab)
        assert ids[0] == START_ID and ids[-1] == EOS_ID
        assert [vocab.token_of(i) for i in ids[1:-1]] == ["a", "red", "circle"]

    def test_round_trip_identity(self):
        vocab = full_vocab(small_dataset())
        for ex in small_dataset():
            for ref in ex.references:
                assert detokenize(tokenize(ref, vocab), vocab) == ref.lower()

    def test_unknown_word_maps_to_unk(self):
        vocab = Vocab(data.SPECIALS + ["a"])
        assert tokenize("a zebra", vocab) == [START_ID, 5, UNK_ID, EOS_ID]

    @given(st.lists(st.sampled_from(["a", "red", "circle", "left", "of"]),
                    min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, words):
        vocab = Vocab(data.SPECIALS + ["a", "red", "circle", "left", "of"])
        text = " ".join(words)
        assert detokenize(tokenize(text, vocab), vocab) == text

    def test_detokenize_keeps_unknown_words_as_strip_specials_does(self):
        vocab = Vocab(data.SPECIALS + ["a", "red"])
        ids = tokenize("a zebra red", vocab)
        assert strip_specials(ids) == [5, UNK_ID, 6]
        assert detokenize(ids, vocab) == "a <unk> red"
        assert detokenize([PAD_ID, START_ID, MASK_ID, 6, EOS_ID, PAD_ID], vocab) == "red"

    @pytest.mark.parametrize("ids", [[START_ID, 5.5, EOS_ID], [1, 5.5, 6.9, 2], [5, "6"],
                                     [5, np.float64(6.0)]], ids=str)
    def test_an_id_that_is_not_an_integer_raises_input_error(self, ids):
        vocab = Vocab(data.SPECIALS + ["a", "red"])
        message = f"token id {next(t for t in ids if not isinstance(t, int))!r} is not an integer"
        for fn in (strip_specials, lambda i: detokenize(i, vocab)):
            with pytest.raises(InputError, match=re.escape(message)):
                fn(ids)

    @pytest.mark.parametrize("bad", [7, 70, -1])
    def test_detokenize_rejects_an_id_outside_the_vocabulary(self, bad):
        vocab = Vocab(data.SPECIALS + ["a", "red"])
        with pytest.raises(InputError, match=f"token id {bad} is outside the vocabulary of 7"):
            detokenize([START_ID, 5, bad, EOS_ID], vocab)

    @pytest.mark.parametrize("ids", [[1, -1, 6, 2], [5, np.int64(-3), -1]], ids=str)
    def test_strip_specials_rejects_a_negative_id(self, ids):
        # a negative id is no word and no special token; it was dropped silently
        bad = next(t for t in ids if t < 0)
        with pytest.raises(InputError, match=re.escape(f"token id {bad} is negative")):
            strip_specials(ids)

    def test_strip_specials_takes_numpy_integers(self):
        assert strip_specials(np.array([START_ID, 5, UNK_ID, 9, EOS_ID])) == [5, UNK_ID, 9]


class TestCaptionsFile:
    ROWS = [{"id": "a", "caption": "a red cube"}, {"id": "b", "caption": ""}]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "captions.jsonl"
        write_captions(self.ROWS, path)
        assert read_captions(path) == {"a": "a red cube", "b": ""}

    @pytest.mark.parametrize("caption", [None, ["x", 1], 3])
    def test_a_caption_that_is_not_a_string_reports_line_number(self, tmp_path, caption):
        path = tmp_path / "captions.jsonl"
        write_captions(self.ROWS + [{"id": "c", "caption": caption}], path)
        with pytest.raises(ParseError, match="line 3: caption must be a string"):
            read_captions(path)

    def test_a_duplicate_id_reports_line_number(self, tmp_path):
        path = tmp_path / "captions.jsonl"
        write_captions(self.ROWS + [{"id": "a", "caption": "a blue ball"}], path)
        with pytest.raises(ParseError, match="line 3: duplicate id 'a'"):
            read_captions(path)
