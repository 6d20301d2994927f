"""Synthetic scene dataset, tokenizer, vocabulary, and the captions file.

Scenes contain 1-3 colored shape groups plus a spatial relation between
the first two groups when there are at least two. Each scene renders into a
noisy one-hot feature vector (the image stand-in) and 3-5 template paraphrase
captions that all describe the true attributes. The templates are the one copy
of the caption grammar in the package; the tests parse every reference back
into scene-graph tuples (tests/oracles.py, caption_tuples) and check them
against its scene's (scene_tuples).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import ConfigError, InputError, ParseError, check_int, check_real

PAD, START, EOS, UNK, MASK = "<pad>", "<start>", "<eos>", "<unk>", "[MASK]"
SPECIALS = [PAD, START, EOS, UNK, MASK]
PAD_ID, START_ID, EOS_ID, UNK_ID, MASK_ID = range(5)

SHAPES = ["circle", "square", "triangle", "star"]
COLORS = ["red", "blue", "green", "yellow", "purple", "black", "white"]
SIZES = ["small", "large"]
RELATIONS = ["left of", "right of", "above", "below", "next to"]
COUNT_WORDS = {1: "one", 2: "two", 3: "three"}

# feature layout: 3 object slots x (present + shape + color + size + count)
# followed by the relation type one-hot
SLOT_DIM = 1 + len(SHAPES) + len(COLORS) + len(SIZES) + 3
BASE_FEATURE_DIM = 3 * SLOT_DIM + len(RELATIONS)
# width of a scene's feature vector: the BASE_FEATURE_DIM one-hot entries,
# zero-padded to 64
FEATURE_DIM = 64
# standard deviation of the Gaussian noise added to every feature, so that
# no two scenes with the same attributes share a feature vector
NOISE = 0.05
# occurrences a training word needs to get its own id; rarer words map to <unk>
MIN_COUNT = 5


@dataclass
class SceneObject:
    shape: str
    color: str
    size: str
    count: int

    def phrase(self, style: str = "a") -> str:
        """Render as a noun phrase; style picks the singular determiner."""
        if self.count == 1:
            det = "one" if style == "one" else "a"
            return f"{det} {self.size} {self.color} {self.shape}"
        return f"{COUNT_WORDS[self.count]} {self.size} {self.color} {self.shape}s"


@dataclass
class Scene:
    index: int
    objects: list[SceneObject]
    relation: str | None  # between objects[0] and objects[1] when present


@dataclass
class CaptionExample:
    id: str
    split: str
    features: np.ndarray
    references: list[str]
    scene: Scene | None = None


@dataclass
class Vocab:
    """Token <-> id bijection with fixed special tokens in front."""

    tokens: list[str]
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        if self.tokens[: len(SPECIALS)] != SPECIALS:
            raise ConfigError("vocabulary must start with the special tokens")
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ConfigError("vocabulary contains duplicate tokens")

    def __len__(self):
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.index.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        """The token of an id; an id that is not an integer in the
        vocabulary raises InputError."""
        _check_ids([idx], len(self.tokens), "token")
        return self.tokens[idx]


# -- scene and caption generation -------------------------------------------


def _make_scene(seed: int, index: int) -> tuple[Scene, np.random.Generator]:
    rng = np.random.default_rng([seed, index])
    n_objects = int(rng.integers(1, 4))
    objects = [
        SceneObject(
            shape=SHAPES[rng.integers(len(SHAPES))],
            color=COLORS[rng.integers(len(COLORS))],
            size=SIZES[rng.integers(len(SIZES))],
            count=int(rng.integers(1, 4)),
        )
        for _ in range(n_objects)
    ]
    relation = RELATIONS[rng.integers(len(RELATIONS))] if n_objects >= 2 else None
    return Scene(index, objects, relation), rng


def scene_features(scene: Scene, rng: np.random.Generator) -> np.ndarray:
    """Concatenated per-slot one-hot encodings, zero-padded to FEATURE_DIM,
    plus additive Gaussian noise of standard deviation NOISE."""
    vec = np.zeros(FEATURE_DIM)
    for slot, obj in enumerate(scene.objects):
        base = slot * SLOT_DIM
        vec[base] = 1.0
        vec[base + 1 + SHAPES.index(obj.shape)] = 1.0
        vec[base + 1 + len(SHAPES) + COLORS.index(obj.color)] = 1.0
        vec[base + 1 + len(SHAPES) + len(COLORS) + SIZES.index(obj.size)] = 1.0
        vec[base + 1 + len(SHAPES) + len(COLORS) + len(SIZES) + obj.count - 1] = 1.0
    if scene.relation is not None:
        vec[3 * SLOT_DIM + RELATIONS.index(scene.relation)] = 1.0
    return vec + rng.normal(0.0, NOISE, size=FEATURE_DIM)


def _templates_for(scene: Scene) -> list[str]:
    objs = scene.objects
    be = "is" if objs[0].count == 1 else "are"
    a = objs[0].phrase()
    a1 = objs[0].phrase("one")
    if len(objs) == 1:
        return [
            a,
            f"there {be} {a}",
            f"the image shows {a1}",
            f"a picture of {a}",
            f"{a} in the picture",
        ]
    b, b1 = objs[1].phrase(), objs[1].phrase("one")
    rel = scene.relation
    if len(objs) == 2:
        return [
            f"{a} {rel} {b}",
            f"there {be} {a} {rel} {b}",
            f"the image shows {a1} {rel} {b1}",
            f"a picture of {a} and {b}",
            f"{a} and {b} in the picture",
        ]
    c, c1 = objs[2].phrase(), objs[2].phrase("one")
    return [
        f"{a} {rel} {b} and {c}",
        f"there {be} {a} {rel} {b} and {c}",
        f"the image shows {a1} {b1} and {c1}",
        f"a picture of {a} {b} and {c}",
        f"{a} {b} and {c} in the picture",
    ]


def scene_captions(scene: Scene, rng: np.random.Generator, n_refs: int) -> list[str]:
    templates = _templates_for(scene)
    picks = rng.choice(len(templates), size=n_refs, replace=False)
    return [templates[i] for i in picks]


def generate_dataset(seed: int, n_scenes: int, refs_per_scene: int = 3,
                     split_fractions: tuple[float, float, float] = (5 / 6, 1 / 12, 1 / 12)
                     ) -> list[CaptionExample]:
    """Deterministic synthetic dataset; each scene depends only on (seed, index).
    Its features are scene_features, FEATURE_DIM wide with NOISE.

    Split sizes for train and val are round(n * fraction); test takes the
    remainder so every scene is covered.
    """
    check_int("seed", seed, 0)
    check_int("n_scenes", n_scenes, 10)
    check_int("refs_per_scene", refs_per_scene, 3)
    if refs_per_scene > 5:
        raise ConfigError("refs_per_scene must lie in 3..5 (distinct templates)")
    for f in split_fractions:  # a NaN passes here and fails the sum
        check_real("split fractions", f, "non-negative", lambda r: not r < 0)
    if len(split_fractions) != 3 or not abs(sum(split_fractions) - 1.0) <= 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {split_fractions}")
    n_train = round(n_scenes * split_fractions[0])
    n_val = round(n_scenes * split_fractions[1])
    if n_train + n_val > n_scenes:
        raise ConfigError("split fractions leave no room for a test split")
    examples = []
    for index in range(n_scenes):
        scene, rng = _make_scene(seed, index)
        references = scene_captions(scene, rng, refs_per_scene)
        features = scene_features(scene, rng)
        if index < n_train:
            split = "train"
        elif index < n_train + n_val:
            split = "val"
        else:
            split = "test"
        examples.append(CaptionExample(
            id=f"scene-{index:06d}", split=split, features=features,
            references=references, scene=scene,
        ))
    return examples


# -- vocabulary and tokenization ---------------------------------------------


def build_vocab(train_examples: list[CaptionExample]) -> Vocab:
    """Lowercased whitespace tokens occurring at least MIN_COUNT times."""
    counts: dict[str, int] = {}
    for ex in train_examples:
        for ref in ex.references:
            for tok in ref.lower().split():
                counts[tok] = counts.get(tok, 0) + 1
    if not counts:
        raise InputError("cannot build a vocabulary from an empty corpus")
    kept = sorted((t for t, c in counts.items() if c >= MIN_COUNT),
                  key=lambda t: (-counts[t], t))
    return Vocab(SPECIALS + kept)


def tokenize(text: str, vocab: Vocab) -> list[int]:
    """Lowercase, split on whitespace, map OOV to <unk>, wrap in start/eos."""
    ids = [vocab.id_of(tok) for tok in text.lower().split()]
    return [START_ID] + ids + [EOS_ID]


def _check_ids(ids, vocab: int, what: str):
    """InputError naming the first id that is not an integer (numpy's too)
    in [0, vocab)."""
    bad = [t for t in ids if not (isinstance(t, Integral) and 0 <= t < vocab)]
    if bad:
        t = bad[0]
        raise InputError(f"{what} id {t} is outside the vocabulary of {vocab}"
                         if isinstance(t, Integral) else f"{what} id {t!r} is not an integer")


def strip_specials(tokens) -> list[int]:
    """The words of a caption: drops <pad>, <start>, <eos> and <mask>, keeps
    <unk>. An id that is not an integer, or is negative, raises InputError."""
    tokens = list(tokens)
    bad = [t for t in tokens if not (isinstance(t, Integral) and t >= 0)]
    if bad:
        t = bad[0]
        raise InputError(f"token id {t} is negative" if isinstance(t, Integral)
                         else f"token id {t!r} is not an integer")
    return [int(t) for t in tokens if t > MASK_ID or t == UNK_ID]


def detokenize(ids, vocab: Vocab) -> str:
    """The words of a caption (strip_specials), <unk> included, joined with
    single spaces. An id that is not an integer in the vocabulary raises
    InputError."""
    ids = list(ids)
    _check_ids(ids, len(vocab), "token")
    return " ".join(map(vocab.token_of, strip_specials(ids)))


# -- captions file -----------------------------------------------------------


def write_captions(rows: list[dict], path):
    """captions.jsonl rows: {"id": ..., "caption": ...}."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps({"id": row["id"], "caption": row["caption"]}) + "\n")


def read_captions(path) -> dict[str, str]:
    """{id: caption} of a captions.jsonl file; a caption that is not a string
    or a repeated id raises ParseError naming the line."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if not isinstance(row["caption"], str):
                    raise ValueError("caption must be a string")
                if row["id"] in out:
                    raise ValueError(f"duplicate id {row['id']!r}")
                out[row["id"]] = row["caption"]
            # json.JSONDecodeError is a ValueError
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{path}: malformed record at line {lineno}: {exc}") from None
    return out
