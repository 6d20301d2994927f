"""The benchmark's three workloads: pretrain, emend and score.

Each workload prepares shared state from the workload seed in `setup` and
the inputs of operation i in `inputs`, outside the timed region. The timed
loop times `op` alone; `record` turns each result into a small record, and
`finish` checks every record after the timed phase. Model weights come from fixed seeds that do not depend
on the workload seed, so a seed changes the inputs and nothing else.

Modules are called through their attributes (``data.generate_dataset``, not a
name imported from ``capfuse.data``) so that the traced run's patches apply.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from capfuse import autodiff, data, decoding, evaluation, fusion, models

MLM_SEED = 7
# Seed of the `none` drafting model, chosen because it rarely drafts an empty
# caption (none in the 3600 test scenes of workload seeds 10..21). `emend`
# rejects an empty draft, so such an example is drafted and not emended.
DRAFT_SEED = 6
FUSION_SEEDS = {"simple": 1, "cold": 2, "hier": 3}
BEAM_WIDTH = 5
TOL = 1e-9
EPOCHS = 1  # pretrain: one mlm_pretrain epoch of batch 32 per operation
BATCH_SIZE = 32
CHECK_EVERY = 8  # emend: every 8th example's emendation beams are rescored
DIGEST_PREFIX = 64  # emend: examples in the seed-deterministic digest and mlm_loss
NO_LIMIT = 1 << 40  # pretrain repeats the same operation for the whole run


def reference_mlm(vocab_size: int) -> models.MaskedLM:
    """The frozen masked LM the emendation models read (untrained)."""
    mlm = fusion.build_mlm(models.MlmConfig(vocab_size), MLM_SEED)
    mlm.freeze()
    return mlm


def masked_loss(mlm: models.MaskedLM, seqs: list[list[int]]) -> float:
    """Mean cross-entropy (nats) of the MLM head at every maskable position."""
    total, positions = 0.0, 0
    for seq, rows in zip(seqs, models.mlm_context_rows(mlm, seqs)):
        logp = autodiff.log_softmax(rows @ mlm.head_w.data + mlm.head_b.data)
        total -= float(logp[np.arange(len(seq) - 1), seq[1:]].sum())
        positions += len(seq) - 1
    return total / positions


def length_stats(lengths) -> dict:
    arr = np.asarray(lengths)
    hist = {int(k): int(v) for k, v in zip(*np.unique(arr, return_counts=True))}
    return {"n": int(arr.size), "min": int(arr.min()), "median": float(np.median(arr)),
            "mean": float(arr.mean()), "max": int(arr.max()), "hist": hist}


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


# -- pretrain -------------------------------------------------------------------


def train_vocab(seed: int) -> data.Vocab:
    """Vocabulary of the train split of the default-size dataset (600 scenes)."""
    examples = data.generate_dataset(seed, 600)
    return data.build_vocab([e for e in examples if e.split == "train"])


def sub_seed(seed: int, i: int) -> int:
    """Dataset seed of operation i: distinct for every (seed, i) pair."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


@dataclass
class Pretrain:
    """`mlm_pretrain` of a fresh fixed-seed MLM over a train-split corpus.

    Operation i trains on the reference corpus of a dataset generated from
    (seed, i), so garbage-collector cycles and caption lengths vary between
    operations the way they would across one long corpus.
    """

    n_scenes: int = 120  # 100 train scenes x 3 references = 300 captions
    window: int = 2  # operations per throughput window
    rss_ops: int = 20  # a timed run makes at least this many; peak RSS is sampled after them
    host_task = "numpy"  # calibration task that scales its throughput
    name = "pretrain"

    def config(self) -> dict:
        return {"n_scenes": self.n_scenes, "epochs": EPOCHS,
                "batch_size": BATCH_SIZE, "mlm_seed": MLM_SEED,
                "mlm": vars(models.MlmConfig(0)) | {"vocab_size": "len(vocab)"}}

    def setup(self, seed: int):
        return SimpleNamespace(seed=seed, n_ops=NO_LIMIT, vocab=train_vocab(seed))

    def inputs(self, st, i: int):
        examples = data.generate_dataset(sub_seed(st.seed, i), self.n_scenes)
        return [data.tokenize(r, st.vocab) for e in examples if e.split == "train"
                for r in e.references]

    def op(self, st, corpus):
        mlm = fusion.build_mlm(models.MlmConfig(len(st.vocab)), MLM_SEED)
        cfg = models.MlmPretrainConfig(epochs=EPOCHS, batch_size=BATCH_SIZE, seed=st.seed)
        return models.mlm_pretrain(mlm, corpus, cfg)

    def record(self, st, corpus, result) -> dict:
        mlm, report = result
        losses = report.epoch_losses
        return {"captions": len(corpus) * EPOCHS,
                "tokens": sum(map(len, corpus)) * EPOCHS,
                "lengths": [len(s) for s in corpus], "losses": losses,
                "margin": report.initial_loss - losses[-1],
                "ok": (all(math.isfinite(x) for x in losses)
                       and losses[-1] < report.initial_loss and mlm.frozen()),
                "checksum": mlm.checksum()}

    def finish(self, st, recs: list[dict]):
        first = recs[0]
        report = {"caption_tokens": length_stats([n for r in recs for n in r["lengths"]]),
                  "refs_per_scene": 3, "vocab_size": len(st.vocab),
                  "epoch_losses_op0": first["losses"],
                  "min_loss_drop": min(r["margin"] for r in recs),
                  "mlm_checksum_op0": first["checksum"]}
        return sum(not r["ok"] for r in recs), first["losses"][-1], report


# -- emend -----------------------------------------------------------------------


@dataclass
class Emend:
    """Beam-draft each test example with the `none` model, then emend the draft
    with the simple, cold and hier models against the frozen MLM.

    Untrained decoders rarely emit <eos> at a realistic length, so each beam
    is capped: drafts at the scene's longest reference + 2 tokens, emendations
    at the draft length + 2.
    """

    pool: int = 2000  # test examples available; the timed loop stops early if spent
    window: int = 20
    rss_ops: int = 100
    host_task = "python"  # rows of at most 5 make it call-bound, not BLAS-bound
    name = "emend"

    def config(self) -> dict:
        return {"pool": self.pool, "beam_width": BEAM_WIDTH, "draft_seed": DRAFT_SEED,
                "fusion_seeds": FUSION_SEEDS, "mlm_seed": MLM_SEED,
                "split_fractions": [0.0, 0.0, 1.0], "check_every": CHECK_EVERY,
                "max_len": "draft: longest reference + 2; emend: draft + 2"}

    def setup(self, seed: int):
        test = data.generate_dataset(seed, self.pool, split_fractions=(0.0, 0.0, 1.0))
        vocab = train_vocab(seed)
        refs = [[data.tokenize(r, vocab) for r in e.references] for e in test]
        v = len(vocab)
        draft_model = fusion.build_model(models.ModelConfig(vocab_size=v), DRAFT_SEED)
        fusers = {k: fusion.build_model(models.ModelConfig(vocab_size=v, fusion_kind=k), s)
                  for k, s in FUSION_SEEDS.items()}
        mlm = reference_mlm(v)
        return SimpleNamespace(test=test, refs=refs, draft_model=draft_model, fusers=fusers,
                               mlm=mlm, mlm_checksum=mlm.checksum(), n_ops=len(test),
                               refs_per_scene=len(test[0].references))

    def inputs(self, st, i: int):
        # tokenized references carry <start> and <eos>: longest words + 2
        return st.test[i].features, max(len(r) for r in st.refs[i])

    def op(self, st, inp):
        features, cap = inp
        draft, score = decoding.beam_search_scored(
            st.draft_model, features, decoding.BeamConfig(BEAM_WIDTH, max_len=cap))
        if not decoding.strip_specials(draft):
            return cap, draft, score, {}  # emend rejects an empty draft by design
        cfg = decoding.BeamConfig(BEAM_WIDTH, max_len=len(draft) + 2)
        emended = {k: decoding.emend(m, st.mlm, features, draft, cfg)
                   for k, m in st.fusers.items()}
        return cap, draft, score, emended

    def record(self, st, inp, result) -> dict:
        cap, draft, score, emended = result
        return {"captions": 1, "tokens": len(draft) + sum(map(len, emended.values())),
                "cap": cap, "draft": draft, "score": score, "emended": emended}

    def _failed(self, st, r: dict) -> bool:
        i = r["index"]
        features = st.test[i].features
        if not close(r["score"], decoding.sequence_logprob(st.draft_model, features,
                                                             r["draft"])):
            return True
        if i % CHECK_EVERY:
            return False
        wrapped = [models.START_ID] + decoding.strip_specials(r["draft"]) + [models.EOS_ID]
        for kind, emended in r["emended"].items():
            model = st.fusers[kind]
            stepper = decoding.EmendStepper(model, st.mlm, features, wrapped)
            tokens, score = decoding.beam_over(stepper, BEAM_WIDTH, len(r["draft"]) + 2)
            rescored = decoding.sequence_logprob(model, features, tokens, mlm=st.mlm,
                                                 draft=r["draft"])
            if tokens != emended or not close(score, rescored):
                return True
        return False

    def finish(self, st, recs: list[dict]):
        failed = sum(self._failed(st, r) for r in recs)
        failed += st.mlm.checksum() != st.mlm_checksum
        drafts = [tuple(r["draft"]) for r in recs]
        head = recs[:DIGEST_PREFIX]
        emended = [r for r in recs if r["emended"]]
        wrapped = [[models.START_ID] + decoding.strip_specials(r["draft"]) + [models.EOS_ID]
                   for r in emended[:DIGEST_PREFIX]]
        lengths = {"draft": length_stats([len(d) for d in drafts])}
        capped = {"draft": float(np.mean([len(r["draft"]) == r["cap"]
                                          and r["draft"][-1] != models.EOS_ID
                                          for r in recs]))}
        for kind in st.fusers:
            outs = [r["emended"][kind] for r in emended]
            lengths[kind] = length_stats([len(o) for o in outs] or [0])
            capped[kind] = float(np.mean([len(o) == len(r["draft"]) + 2
                                          and o[-1] != models.EOS_ID
                                          for o, r in zip(outs, emended)] or [0]))
        report = {
            "caption_tokens": length_stats([len(t) for refs in st.refs for t in refs]),
            "refs_per_scene": st.refs_per_scene,
            "examples_done": len(recs), "empty_drafts": len(recs) - len(emended),
            "pool": st.n_ops,
            "repeated_draft_share": 1.0 - len(set(drafts)) / len(drafts),
            "emitted_lengths": lengths, "share_stopped_by_max_len": capped,
            "tokens_digest_prefix": token_digest(head),
            "tokens_digest_all": token_digest(recs),
            "mlm_checksum": st.mlm_checksum,
        }
        return failed, masked_loss(st.mlm, wrapped), report


def token_digest(recs: list[dict]) -> str:
    h = hashlib.sha256()
    for r in recs:
        h.update(repr((r["draft"], sorted(r["emended"].items()))).encode())
    return h.hexdigest()[:16]


# -- score -------------------------------------------------------------------------


def corrupt(tokens: list[str], rng: np.random.Generator, words: list[str]) -> list[str]:
    """Apply 0-3 random substitutions, insertions and deletions."""
    out = list(tokens)
    for _ in range(int(rng.integers(0, 4))):
        kind = int(rng.integers(3))
        if kind == 0:
            out[int(rng.integers(len(out)))] = words[int(rng.integers(len(words)))]
        elif kind == 1:
            out.insert(int(rng.integers(len(out) + 1)), words[int(rng.integers(len(words)))])
        elif len(out) > 1:
            del out[int(rng.integers(len(out)))]
    return out


@dataclass
class Score:
    """Corpus metrics plus token edits over corrupted references.

    Operation i scores one chunk: the references of 20 scenes generated from
    (seed, i), so the supply of inputs never runs out and no input repeats.
    Hypothesis j of a scene is its reference j after seeded corruption, scored
    against the scene's other references; its edit record maps the hypothesis
    (the draft) back to that reference.
    """

    scenes_per_chunk: int = 20  # x 5 references = 100 hypotheses per corpus
    window: int = 20
    rss_ops: int = 100
    host_task = "python"
    refs_per_scene = 5
    name = "score"

    def config(self) -> dict:
        return {"scenes_per_chunk": self.scenes_per_chunk,
                "refs_per_scene": self.refs_per_scene, "oracle": "operation 0, in full",
                "corruption": "0-3 uniform sub/ins/del per hypothesis"}

    def setup(self, seed: int):
        examples = data.generate_dataset(seed, 200, refs_per_scene=self.refs_per_scene)
        vocab = data.build_vocab(examples)
        return SimpleNamespace(seed=seed, vocab=vocab, words=vocab.tokens[len(data.SPECIALS):],
                               n_ops=NO_LIMIT)

    def inputs(self, st, i: int):
        examples = data.generate_dataset(sub_seed(st.seed, i), self.scenes_per_chunk,
                                         refs_per_scene=self.refs_per_scene)
        rng = np.random.default_rng([st.seed, i])
        hyps, sources, others = [], [], []
        for e in examples:
            refs = [r.split() for r in e.references]
            for j, ref in enumerate(refs):
                hyps.append(corrupt(ref, rng, st.words))
                sources.append(ref)
                others.append(refs[:j] + refs[j + 1:])
        return hyps, sources, others

    def op(self, st, inp):
        hyps, sources, others = inp
        metrics = evaluation.compute_metrics(hyps, others)
        edits = [evaluation.token_edits(h, s) for h, s in zip(hyps, sources)]
        return metrics, edits, evaluation.edit_histogram(edits)

    def record(self, st, inp, result) -> dict:
        # replayed here, untimed, so that no edit list outlives its operation
        metrics, edits, (hist, unchanged) = result
        replay_ok = all(evaluation.apply_edits(e.draft, e.ops) == e.emended for e in edits)
        return {"captions": len(inp[0]), "tokens": sum(map(len, inp[0])),
                "lengths": [len(h) for h in inp[0]], "metrics": metrics.to_dict(),
                "edit_counts": [e.count for e in edits],
                "ok": replay_ok and sum(hist.values()) + unchanged == len(edits),
                "hist": hist, "unchanged": unchanged}

    def _oracle_ok(self, st, recs: list[dict]) -> bool:
        """Operation 0's recorded outputs against the brute-force twins."""
        # tests/ holds the brute-force twins; run.py puts it on sys.path
        from oracles import (bleu_brute, cider_brute, edit_distance_recursive,
                             rouge_brute)

        rec = next((r for r in recs if r["index"] == 0), None)
        if rec is None:
            return False
        hyps, sources, refs = self.inputs(st, 0)
        got = rec["metrics"]
        want = [bleu_brute(hyps, refs, k) for k in range(1, 5)]
        want += [rouge_brute(hyps, refs), 10.0 * cider_brute(hyps, refs)]
        keys = ("bleu_1", "bleu_2", "bleu_3", "bleu_4", "rouge_l", "cider")
        counts = [edit_distance_recursive(h, s) for h, s in zip(hyps, sources)]
        return rec["edit_counts"] == counts and all(close(got[k], w)
                                                    for k, w in zip(keys, want))

    def finish(self, st, recs: list[dict]):
        failed = 0
        hist: dict[int, int] = {}
        for r in recs:
            failed += not r["ok"]
            for k, v in r["hist"].items():
                hist[k] = hist.get(k, 0) + v
        failed += not self._oracle_ok(st, recs)
        head = [[models.START_ID] + [st.vocab.id_of(w) for w in h] + [models.EOS_ID]
                for h in self.inputs(st, 0)[0][:64]]
        report = {
            "caption_tokens": length_stats([n for r in recs for n in r["lengths"]]),
            "refs_per_scene": self.refs_per_scene,
            "hypotheses_done": sum(r["captions"] for r in recs),
            "edit_histogram": dict(sorted(hist.items())),
            "unchanged": sum(r["unchanged"] for r in recs),
            "first_chunk_metrics": recs[0]["metrics"],
        }
        return failed, masked_loss(reference_mlm(len(st.vocab)), head), report


WORKLOADS = {w.name: w for w in (Pretrain, Emend, Score)}
