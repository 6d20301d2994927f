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
    Scene,
    SceneObject,
    Vocab,
    build_vocab,
    detokenize,
    generate_dataset,
    read_captions,
    strip_specials,
    tokenize,
    write_captions,
)
from capfuse.errors import ConfigError, InputError, ParseError
from capfuse.models import ModelConfig
from oracles import DETERMINERS, caption_tuples, noun_phrases, scene_tuples


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


def semantic_substitutions(caption):
    """(category, caption) for each caption that one semantic substitution
    makes of a caption: another colour, size or shape in one noun phrase,
    another count in one noun phrase (with the noun's plural to match), or
    another relation."""
    words = caption.split()

    def swap(i, n, new):
        return " ".join(words[:i] + new + words[i + n:])

    for i, word in enumerate(words):
        for category, group in (("colour", data.COLORS), ("size", data.SIZES)):
            if word in group:
                yield from ((category, swap(i, 1, [w])) for w in group if w != word)
        shape, plural = word.rstrip("s"), word.endswith("s")
        if shape in data.SHAPES:
            yield from (("shape", swap(i, 1, [s + "s" * plural]))
                        for s in data.SHAPES if s != shape)
        noun = words[i + 3].rstrip("s") if i + 3 < len(words) else None
        if word in DETERMINERS and noun in data.SHAPES:
            for det, count in DETERMINERS.items():
                if count != DETERMINERS[word]:
                    plural = noun + "s" * (count > 1)
                    yield "count", swap(i, 4, [det, *words[i + 1:i + 3], plural])
        for n in (1, 2):
            relation = " ".join(words[i:i + n])
            if relation in data.RELATIONS:
                yield from (("relation", swap(i, n, r.split()))
                            for r in data.RELATIONS if r != relation)


class TestSceneTuples:
    """The references against their scene's graph, through the oracle
    parser of tests/oracles.py; the generator is the one copy of the
    grammar in the package."""

    @pytest.mark.parametrize("seed", [5, 11, 203])
    def test_references_state_only_and_together_all_of_their_scenes_tuples(self, seed):
        examples = generate_dataset(seed, 3000, refs_per_scene=5)
        for ex in examples:
            truth = scene_tuples(ex.scene)
            objects = [(o.count, o.size, o.color, o.shape) for o in ex.scene.objects]
            stated = [caption_tuples(ref.split()) for ref in ex.references]
            for ref, tuples in zip(ex.references, stated):
                assert tuples and tuples <= truth, (ex.id, ref, tuples - truth)
                # each object once, in the scene's order, so (relation, 0, 1)
                # relates the objects that the scene relates
                assert [t for _, t in noun_phrases(ref.split())] == objects, (ex.id, ref)
            assert set().union(*stated) == truth, (ex.id, truth - set().union(*stated))

    def test_a_true_attribute_on_the_wrong_object_is_rejected(self):
        # a bag-of-words check finds "small", "red" and "square" in this
        # scene and accepts the caption
        scene = Scene(0, [SceneObject("circle", "red", "small", 1),
                          SceneObject("square", "blue", "small", 1)], "left of")
        assert caption_tuples("a small red square".split()) == {(1, "small", "red", "square")}
        assert not caption_tuples("a small red square".split()) <= scene_tuples(scene)
        assert caption_tuples("a small red circle left of a small blue square".split()) \
            == scene_tuples(scene)

    @pytest.mark.parametrize("caption", [
        "a small red circle",
        "there are two large blue squares left of a small red circle and three small green stars",
        "the image shows one large white star above one small black triangle",
        "a picture of three small yellow triangles two large purple circles and a large red star",
        "two small black stars next to a large green circle",
    ])
    def test_each_semantic_substitution_changes_exactly_one_tuple(self, caption):
        before = caption_tuples(caption.split())
        done = set()
        for category, changed in semantic_substitutions(caption):
            after = caption_tuples(changed.split())
            assert len(before - after) == len(after - before) == 1, (changed, before ^ after)
            done.add(category)
        relation = any(r in caption for r in data.RELATIONS)
        assert done == {"colour", "size", "shape", "count"} | ({"relation"} if relation else set())

    @pytest.mark.parametrize("caption", [
        "", "small red circle", "a red circle", "a small circle", "a small red",
        "two small red circle", "a small red circles", "one large blue stars",
        "small a red circle", "a small circle red", "a large <unk> square",
        "four small red circles", "the image shows left of", "<unk> <unk> <unk> <unk>",
    ])
    def test_a_caption_off_the_grammar_gives_no_tuple(self, caption):
        assert caption_tuples(caption.split()) == set()

    @pytest.mark.parametrize("caption, want", [
        ("<unk> zebra a small red circle <unk>", {(1, "small", "red", "circle")}),
        ("a small red circle left of <unk> a large blue square",
         {(1, "small", "red", "circle"), (1, "large", "blue", "square")}),
        ("a small red circle left of", {(1, "small", "red", "circle")}),
        ("a small red circle and a large blue square above two small green stars",
         {(1, "small", "red", "circle"), (1, "large", "blue", "square"),
          (2, "small", "green", "star")}),
        ("left of a small red circle above one large blue square",
         {(1, "small", "red", "circle"), (1, "large", "blue", "square"), ("above", 0, 1)}),
    ])
    def test_unknown_words_are_skipped_and_a_relation_needs_both_phrases(self, caption, want):
        assert caption_tuples(caption.split()) == want

    @given(st.lists(st.sampled_from(["a", "one", "two", "three", "small", "large", "red",
                                     "blue", "circle", "circles", "star", "stars", "left",
                                     "of", "above", "and", "<unk>"]), max_size=14))
    @settings(max_examples=200, deadline=None)
    def test_every_tuple_is_spelled_out_in_the_caption(self, words):
        text = f" {' '.join(words)} "
        for t in caption_tuples(words):
            if isinstance(t[0], str):
                assert f" {t[0]} " in text
            else:
                obj = SceneObject(t[3], t[2], t[1], t[0])
                assert f" {obj.phrase()} " in text or f" {obj.phrase('one')} " in text


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
