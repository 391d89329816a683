"""The benchmark workloads.

Every workload runs the same user cycle through the public multidiac API,
as the CLI does: set up, train with `training.fit`, round-trip a
checkpoint, and diacritize sentences one at a time with the MC-dropout
ensemble. The workloads differ in model size, inputs and which phase gets
the measuring time, so each stresses different layers (see README.md):

- train-desk: the desk model and recipe; `fit` repeats until the time is
  used, with the CLI's greedy dev scorer and a checkpoint per epoch; the
  selected checkpoint then runs 50 MC passes over the dev sentences.
- infer-ensemble: four briefly trained desk checkpoints x 50 passes over
  sentences of varied length, at least 100 of them.
- fullscale: full-scale widths and sequence lengths; one primary-recipe
  step per `fit`, a checkpoint round trip, and 1 x 4-pass sentences on the
  loaded checkpoint.

Inputs come from `data.synthesize_corpus` and are a function of the seed.
Generating them is the benchmark's own work and is not timed.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from multidiac import audiofe, data, inference, metrics, model, training
from multidiac.numerics import RngStream
from multidiac.textproc import (ARABIC_LETTERS, Vocabulary, insert_diacritics,
                                strip_diacritics)

# MC-dropout ensemble recipe
PASSES = 50
MEMBERS = 4
DROPOUT = 0.1
# p90 needs at least ten sentence timings beyond it
MIN_SENTENCES = 100


@dataclass
class Results:
    """What one pass of a workload measured and produced."""

    attempted: int = 0
    failed: int = 0
    setup_s: list[float] = field(default_factory=list)
    train_rates: list[float] = field(default_factory=list)
    final_losses: list[float] = field(default_factory=list)
    save_s: list[float] = field(default_factory=list)
    load_s: list[float] = field(default_factory=list)
    sentence_s: list[float] = field(default_factory=list)
    letters: int = 0
    der: float = math.nan
    # outputs that must not change between repeats or under the trace
    loss_histories: list[list[str]] = field(default_factory=list)
    predictions: dict[str, str] = field(default_factory=dict)
    # loop counts, so a traced pass repeats exactly the untraced work
    plan: dict[str, int] = field(default_factory=dict)

    def fail(self, ops: int, what: str):
        self.failed += ops
        print(f"failed: {what}", file=sys.stderr)

    def prediction_digest(self) -> str:
        h = hashlib.sha256()
        for sid in sorted(self.predictions):
            h.update(f"{sid}\t{self.predictions[sid]}\n".encode("utf-8"))
        return h.hexdigest()


class Pass:
    """One pass over a workload: its work directory, deadline and results.

    With `plan` set, loops run the recorded counts instead of watching the
    clock, so a traced pass does exactly the work of the untraced one.
    """

    def __init__(self, work: str, seed: int, seconds: float, plan=None):
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.replay = plan
        self.results = Results()
        self.deadline = None

    def start_clock(self):
        self.deadline = perf_counter() + self.seconds

    def keep_going(self, name: str, done: int, minimum: int) -> bool:
        """Loop condition: the recorded count when replaying, otherwise at
        least `minimum` iterations and then until the deadline."""
        if self.replay is not None:
            return done < self.replay[name]
        self.results.plan[name] = done
        return done < minimum or perf_counter() < self.deadline


# -- inputs (untimed) -----------------------------------------------------


def synth(out_dir: str, spec: data.SynthSpec, seed: int, stream: int):
    """Write a synthetic corpus; returns (train manifest, dev manifest)."""
    data.synthesize_corpus(spec, RngStream(seed).child(stream), out_dir)
    return os.path.join(out_dir, "train.jsonl"), os.path.join(out_dir, "dev.jsonl")


# -- phases ---------------------------------------------------------------


@dataclass
class TrainingSetup:
    corpus: list
    model: model.DiacritizerModel
    dev_scorer: object


def setup_training(train_manifest: str, dev_manifest: str,
                   model_cfg: model.ModelConfig, seed: int) -> TrainingSetup:
    """What `multidiac train` does before `fit`: manifest and corpus load,
    ratio filter, vocabulary and model init, greedy dev scorer."""
    records = data.load_manifest(train_manifest)
    kept, _ = data.filter_corpus(records)
    corpus = data.corpus_from_manifest(train_manifest, kept)
    vocab = Vocabulary.from_texts([r.text for r in kept])
    if len(vocab) > model_cfg.vocab_size:
        model_cfg = replace(model_cfg, vocab_size=len(vocab))
    net = model.DiacritizerModel(model_cfg, vocab, RngStream(seed))
    dev_records = data.load_manifest(dev_manifest)
    dev_corpus = data.corpus_from_manifest(dev_manifest, dev_records)
    gold = {r.id: r.text for r in dev_records}

    def dev_scorer(m):
        preds = {}
        for s in dev_corpus:
            classes = inference.predict_greedy(m, s.raw, s.waveform)
            preds[s.sample_id] = insert_diacritics(s.raw, classes)
        return metrics.evaluate_corpus(preds, gold).wer

    return TrainingSetup(corpus, net, dev_scorer)


def fit_op(p: Pass, ts: TrainingSetup, cfg: training.TrainConfig, out_dir,
           reference: list[str] | None = None) -> dict | None:
    """One `training.fit`; every step is an op. Gates: each epoch's loss is
    finite and, given a reference history, bitwise equal to it."""
    r = p.results
    steps = cfg.epochs * math.ceil(len(ts.corpus) / cfg.batch_size)
    r.attempted += steps
    t0 = perf_counter()
    try:
        history = training.fit(ts.corpus, ts.model, cfg, out_dir=out_dir,
                               dev_scorer=ts.dev_scorer)
    except Exception:
        traceback.print_exc()
        r.fail(steps, "fit raised")
        return None
    wall = perf_counter() - t0
    losses = history["loss"]
    bits = [float(x).hex() for x in losses]
    if not all(math.isfinite(x) for x in losses):
        r.fail(steps, f"non-finite epoch loss {losses}")
    elif reference is not None and bits != reference:
        r.fail(steps, "loss history differs between repeats of one seed")
    r.train_rates.append(cfg.epochs * len(ts.corpus) / wall)
    r.final_losses.append(losses[-1])
    r.loss_histories.append(bits)
    return history


def checkpoint_meta(net: model.DiacritizerModel, cfg: training.TrainConfig) -> dict:
    return {"seed": cfg.seed, "epoch": cfg.epochs,
            "fingerprint": training.config_fingerprint(net.config, cfg),
            "model_cfg": training.serialize_config(net.config),
            "train_cfg": training.serialize_config(cfg)}


def same_tensors(a: model.DiacritizerModel, b: model.DiacritizerModel) -> bool:
    return a.params.keys() == b.params.keys() and all(
        a.params[n].data.dtype == b.params[n].data.dtype and
        a.params[n].data.tobytes() == b.params[n].data.tobytes() for n in a.params)


def checkpoint_round_trip(p: Pass, net: model.DiacritizerModel,
                          cfg: training.TrainConfig, path: str):
    """Save then load one checkpoint; one op. Gates: every tensor is
    bit-exact and the stored fingerprint verifies against the configs.
    Returns the loaded model, or None when the round trip raised."""
    r = p.results
    r.attempted += 1
    try:
        t0 = perf_counter()
        training.save_checkpoint(path, net, checkpoint_meta(net, cfg))
        t1 = perf_counter()
        loaded = training.load_checkpoint(path, net.config, cfg, net.vocab)
        t2 = perf_counter()
    except Exception:
        traceback.print_exc()
        r.fail(1, "checkpoint round trip raised")
        return None
    r.save_s.append(t1 - t0)
    r.load_s.append(t2 - t1)
    if not same_tensors(net, loaded):
        r.fail(1, f"{path}: tensors changed in a save/load round trip")
    return loaded


@dataclass(frozen=True)
class Sentence:
    id: str
    raw: str
    gold: str
    wav: str
    letters: int


def sentences_from(manifest: str, prefix: str = "") -> list[Sentence]:
    base = os.path.dirname(os.path.abspath(manifest))
    out = []
    for rec in data.load_manifest(manifest):
        raw = strip_diacritics(rec.text)
        out.append(Sentence(prefix + rec.id, raw, rec.text,
                            os.path.join(base, rec.audio),
                            sum(c in ARABIC_LETTERS for c in raw)))
    return out


def diacritize_each(p: Pass, models: list, items: list[Sentence], passes: int):
    """Diacritize `items` one sentence at a time, as `multidiac infer` does:
    each timing includes `audiofe.load_wav`. Each sentence is an op. Gates:
    stripping the prediction gives the input back, and a sentence seen
    before in this pass gets the same prediction."""
    r = p.results
    ens = inference.EnsembleConfig(passes_per_model=passes,
                                   inference_dropout_p=DROPOUT, seed=p.seed)
    for s in items:
        r.attempted += 1
        try:
            t0 = perf_counter()
            wav = audiofe.load_wav(s.wav)
            text, _ = inference.diacritize(s.raw, wav, models, ens)
            r.sentence_s.append(perf_counter() - t0)
        except Exception:
            traceback.print_exc()
            r.fail(1, f"sentence {s.id} raised")
            continue
        r.letters += s.letters
        if strip_diacritics(text) != s.raw:
            r.fail(1, f"sentence {s.id}: prediction does not strip to the input")
        elif r.predictions.setdefault(s.id, text) != text:
            r.fail(1, f"sentence {s.id}: prediction differs between repeats")


def score(p: Pass, items: list[Sentence]):
    """Ensemble DER of this pass's predictions against gold."""
    r = p.results
    gold = {s.id: s.gold for s in items if s.id in r.predictions}
    r.der = metrics.evaluate_corpus(r.predictions, gold).der


# -- workloads ------------------------------------------------------------
#
# Each workload loops over cycles that hold a little of every phase, so the
# samples of every metric spread across the whole run rather than sitting
# in one window of it.


def train_desk(p: Pass):
    train_m, dev_m = synth(os.path.join(p.work, "corpus"),
                           data.desk_synth_spec(64), p.seed, 0)
    cfg = replace(training.desk_recipe(p.seed), epochs=3, warmup_epochs=1)
    r = p.results
    p.start_clock()
    items = sentences_from(dev_m)
    cycles = 0
    while p.keep_going("cycles", cycles, 4):
        t0 = perf_counter()
        ts = setup_training(train_m, dev_m, model.desk_config(), cfg.seed)
        r.setup_s.append(perf_counter() - t0)
        reference = r.loss_histories[0] if r.loss_histories else None
        history = fit_op(p, ts, cfg, os.path.join(p.work, f"fit{cycles}"), reference)
        checkpoint_round_trip(p, ts.model, cfg, os.path.join(p.work, "trip.ckpt"))
        if history is not None:
            selected = training.load_checkpoint(history["selected"])
            diacritize_each(p, [selected], items, PASSES)
        cycles += 1
    score(p, items)


def infer_ensemble(p: Pass):
    # members: four desk checkpoints, each a short fit with its own seed
    train_m, dev_m = synth(os.path.join(p.work, "members"),
                           replace(data.desk_synth_spec(20), dev_fraction=0.2),
                           p.seed, 0)
    # inputs: ten sentences each of 1-5 two-letter words, so lengths vary
    # within the run (2-10 letters, up to the desk frame budget) while the
    # length mix is the same for every seed
    inputs_m = [synth(os.path.join(p.work, f"inputs{w}"),
                      replace(data.desk_synth_spec(10), words=(w, w), dev_fraction=1.0),
                      p.seed, w)[1]
                for w in range(1, 6)]
    r = p.results
    p.start_clock()
    cfgs, paths, histories = [], [], []
    for i in range(MEMBERS):
        cfgs.append(replace(training.desk_recipe(p.seed * MEMBERS + i), epochs=1,
                            warmup_epochs=0))
        ts = setup_training(train_m, dev_m, model.desk_config(), cfgs[i].seed)
        histories.append(r.loss_histories[-1] if fit_op(p, ts, cfgs[i], None) else None)
        paths.append(os.path.join(p.work, f"member{i}.ckpt"))
        checkpoint_round_trip(p, ts.model, cfgs[i], paths[i])
    # Each cycle: what `multidiac infer` does before its first sentence, a
    # second fit of one member (same seed, so the same loss history; it
    # spreads the training samples over the run), and a quarter of the
    # inputs. At least MIN_SENTENCES sentences, so every input runs twice.
    per_cycle = MIN_SENTENCES // 4
    cycles = 0
    while p.keep_going("cycles", cycles, 4):
        t0 = perf_counter()
        shapes = [sentences_from(m, f"w{w}/") for w, m in enumerate(inputs_m, 1)]
        items = [s for group in zip(*shapes) for s in group]
        models = []
        for path in paths:
            t1 = perf_counter()
            models.append(training.load_checkpoint(path))
            r.load_s.append(perf_counter() - t1)
        r.setup_s.append(perf_counter() - t0)
        member = cycles % MEMBERS
        ts = setup_training(train_m, dev_m, model.desk_config(), cfgs[member].seed)
        fit_op(p, ts, cfgs[member], None, histories[member])
        checkpoint_round_trip(p, ts.model, cfgs[member], os.path.join(p.work, "trip.ckpt"))
        first = cycles * per_cycle % len(items)
        diacritize_each(p, models, items[first:first + per_cycle], PASSES)
        cycles += 1
    score(p, items)


# Full-scale widths, heads, sequence lengths and vocabulary; one speech
# block and one text layer instead of six each, so that a run fits the
# benchmark's time budget. Per-block arithmetic is that of the paper model.
FULLSCALE_BLOCKS = 1


def fullscale(p: Pass):
    train_m, dev_m = synth(os.path.join(p.work, "corpus"),
                           data.SynthSpec(sample_count=3, dev_fraction=0.34),
                           p.seed, 0)
    # 100-letter sentences: 20 s of audio, within the 30 s frame budget
    _, inputs_m = synth(os.path.join(p.work, "inputs"),
                        data.SynthSpec(sample_count=2, words=(20, 20), dev_fraction=1.0),
                        p.seed, 1)
    cfg = replace(training.table1_primary(p.seed), batch_size=2, epochs=1,
                  warmup_epochs=0)
    net_cfg = replace(model.full_scale_config(), speech_blocks=FULLSCALE_BLOCKS,
                      text_layers=FULLSCALE_BLOCKS)
    r = p.results
    p.start_clock()
    prep = setup_training(train_m, dev_m, net_cfg, cfg.seed)
    items = sentences_from(inputs_m)
    path = os.path.join(p.work, "full.ckpt")
    cycles = 0
    while p.keep_going("cycles", cycles, 2):
        t0 = perf_counter()
        net = model.DiacritizerModel(prep.model.config, prep.model.vocab,
                                     RngStream(cfg.seed))
        r.setup_s.append(perf_counter() - t0)
        reference = r.loss_histories[0] if r.loss_histories else None
        fit_op(p, TrainingSetup(prep.corpus, net, prep.dev_scorer), cfg, None,
               reference)
        loaded_net = checkpoint_round_trip(p, net, cfg, path)
        del net
        if loaded_net is not None:
            diacritize_each(p, [loaded_net], items, 4)
        cycles += 1
    score(p, items)


WORKLOADS = {
    "train-desk": train_desk,
    "infer-ensemble": infer_ensemble,
    "fullscale": fullscale,
}


def end_to_end(r: Results, peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics of one untraced pass; NaN where every op of a
    kind failed."""
    def pct(xs, q):
        return float(np.percentile(xs, q)) if xs else math.nan

    return {
        "setup_s": pct(r.setup_s, 50),
        "peak_rss_mb": peak_rss_mb,
        "train.samples_per_s": pct(r.train_rates, 50),
        "train.final_loss": pct(r.final_losses, 50),
        "ckpt.save_s": pct(r.save_s, 50),
        "ckpt.load_s": pct(r.load_s, 50),
        "infer.letters_per_s": r.letters / sum(r.sentence_s) if r.sentence_s else math.nan,
        "infer.sentence_ms.p50": 1000.0 * pct(r.sentence_s, 50),
        "infer.sentence_ms.p90": 1000.0 * pct(r.sentence_s, 90),
        "infer.der": r.der,
    }
