"""MC-Dropout ensemble inference, end-to-end diacritization, dev scoring.

Each checkpoint runs a configurable number of stochastic forward passes
with text-encoder dropout kept active (layer norm has no stochastic state
and is unaffected); softmax probabilities are averaged over every
(model, pass) pair before the per-letter argmax. Only the letters are
scored: the last text block after its attention, the final norm and the
softmax run on the letter rows alone, bitwise those rows of the whole
forward. Sub-streams are keyed by (model index, pass index), so how the
passes of a checkpoint are stacked into forwards cannot change the
result. A fixed seed gives every sentence the same keys, so at desk width
each sentence reuses its models' dropout masks from the numerics memo. At
full width sentences mostly redraw: one sentence's masks outgrow the memo,
and a length that changes mc_forward's stack size misses it.
Greedy dev scoring is the one-pass p = 0 ensemble of one model; it keeps
each model's pooled speech frames between calls, while `diacritize` never
hashes or caches.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .audiofe import Waveform, log_mel
from .errors import ShapeError
from .model import DiacritizerModel, ModelConfig, require_counts, require_range, stack_size
from .numerics import RngStream
from .textproc import insert_diacritics


@dataclass(frozen=True)
class EnsembleConfig:
    checkpoints: tuple[str, ...] = ()
    passes_per_model: int = 50
    inference_dropout_p: float = 0.1
    seed: int = 0

    def __post_init__(self):
        require_counts(self, ("passes_per_model",))
        require_counts(self, ("seed",), minimum=None)
        require_range(self, ("inference_dropout_p",), 0.0, 1.0, hi_open=True)


def mc_forward(model: DiacritizerModel, tokens: np.ndarray,
               prefix, passes: int, p: float, rng: RngStream,
               rows: np.ndarray | None = None) -> np.ndarray:
    """(passes, full positions, 15) softmax probabilities, read-only, or
    with rows (ascending positions) (passes, len(rows), 15), bitwise those
    rows of the full result: the forward's last block past attention, its
    final norm and the softmax run on those rows alone. Pass i uses the
    stream rng.child(i), keyed through rng.child_keys. Passes run as
    stacked forwards of `stack_size` passes each, which leaves every
    pass's output unchanged; each stack's logits are normalised in place.
    At p = 0 every pass is the eval output, so only pass 0 runs and its row
    is repeated."""
    chunk = stack_size(model.config, model.dtype, len(tokens))
    run = passes if p else 1
    out = []
    for start in range(0, run, chunk):
        keys = rng.child_keys(range(start, min(run, start + chunk)))
        logits = model.forward(tokens, prefix, keys, p, grad=False, rows=rows).data
        out.append(nm.softmax(logits, out=logits))
    probs = np.concatenate(out)
    return np.broadcast_to(probs, (passes,) + probs.shape[1:])


def ensemble_average(pass_probs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Mean over all (model, pass) distributions, then per-position argmax.

    Ties break toward the lowest class id (np.argmax convention). Returns
    (class ids, mean probability of the chosen class).
    """
    shapes = {a.shape[1:] for a in pass_probs}
    if len(shapes) != 1:
        raise ShapeError(f"pass tensors disagree on shape: {sorted(shapes)}")
    total = np.zeros(pass_probs[0].shape[1:], dtype=np.float64)
    count = 0
    for a in pass_probs:
        total += a.sum(axis=0, dtype=np.float64)
        count += a.shape[0]
    mean = total / count
    classes = mean.argmax(axis=-1)
    return classes, mean[np.arange(len(classes)), classes]


# Byte bound of each model's cache of mean-pooled speech frames. A full cache
# takes no more entries: dev scoring scans its utterances in a cycle, where
# evicting the oldest entry would drop each one just before its reuse.
POOLED_CACHE_BYTES = 64 << 20
# model -> (SHA-256 of its speech.* parameters, {_audio_key: mean-pooled
# frames}), dropped with the model
_pooled_cache = weakref.WeakKeyDictionary()


def diacritize(raw: str, waveform: Waveform | None,
               models: list[DiacritizerModel], cfg: EnsembleConfig) -> tuple[str, list[float]]:
    """Ensemble-predict diacritics for one sample and re-insert them.

    Audio is optional; absent audio means a zero speech prefix (text-only
    path). Returns (diacritized text, per-letter confidence).
    """
    tokens = models[0].encode_text(raw)
    letter_rows = models[0].letter_rows(raw)
    run = RngStream(cfg.seed)
    mels = {}  # one log-mel per (mels, mel_frames), shared by models
    all_probs = []
    for mi, model in enumerate(models):
        prefix = None
        if waveform is not None:
            shape = (model.config.mels, model.config.mel_frames)
            if shape not in mels:
                mels[shape] = log_mel(waveform, mels=shape[0], frame_budget=shape[1])
            prefix = model.pool_project(*model.pooled_frames([mels[shape]]))
        all_probs.append(mc_forward(model, tokens, prefix, cfg.passes_per_model,
                                    cfg.inference_dropout_p, run.child(mi), letter_rows))
    classes, confidence = ensemble_average(all_probs)
    text = insert_diacritics(raw, [int(c) for c in classes])
    return text, [float(c) for c in confidence]


def _audio_key(waveform: Waveform, cfg: ModelConfig) -> tuple:
    samples = np.ascontiguousarray(waveform.samples)
    return hashlib.sha256(samples).digest(), samples.dtype.str, cfg.mels, cfg.mel_frames


def predict_greedy_corpus(model: DiacritizerModel,
                          samples: list[tuple[str, Waveform | None]]) -> list[list[int]]:
    """predict_greedy of each (raw, waveform) pair. The mean-pooled speech
    frames come through the model's cache: the speech weights are digested
    once, a new digest empties the cache, and the misses are encoded in one
    `pooled_frames` pass, each detached before the next is read."""
    cfg = model.config
    digest = hashlib.sha256()
    for name, p in model.params.items():
        if name.startswith("speech."):
            digest.update(np.ascontiguousarray(p.data))
    if _pooled_cache.get(model, (None,))[0] != digest.digest():
        _pooled_cache[model] = (digest.digest(), {})
    cache = _pooled_cache[model][1]
    keys = [None if w is None else _audio_key(w, cfg) for _, w in samples]
    pooled = {key: cache.get(key) for key in keys}
    misses = {key: w for key, (_, w) in zip(keys, samples) if w is not None and pooled[key] is None}
    encoded = model.pooled_frames(log_mel(w, mels=cfg.mels, frame_budget=cfg.mel_frames)
                                  for w in misses.values())
    for key in misses:
        pooled[key] = next(encoded).detach()
        if len(cache) < POOLED_CACHE_BYTES // pooled[key].data.nbytes:
            cache[key] = pooled[key]
    out = []
    for (raw, _), key in zip(samples, keys):
        prefix = None if key is None else model.pool_project(pooled[key])
        probs = mc_forward(model, model.encode_text(raw), prefix, 1, 0.0, RngStream(0),
                           model.letter_rows(raw))
        classes, _ = ensemble_average([probs])
        out.append([int(c) for c in classes])
    return out


def predict_greedy(model: DiacritizerModel, raw: str,
                   waveform: Waveform | None) -> list[int]:
    """Greedy prediction of one sentence: a corpus of one."""
    return predict_greedy_corpus(model, [(raw, waveform)])[0]
