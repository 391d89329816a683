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
`diacritize` and greedy dev scoring are two calls of one per-sample loop:
`diacritize` one sample of several models, never hashing or caching, and
greedy dev scoring the one-model, one-pass, p = 0 ensemble at seed 0,
which keeps each model's mean-pooled speech frames between calls.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .audiofe import Waveform, log_mel
from .errors import ShapeError
from .model import DiacritizerModel, require_counts, require_range, stack_size
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
    probs = out[0] if len(out) == 1 else np.concatenate(out)
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
# model -> (SHA-256 of its speech.* parameters, {(samples' SHA-256, dtype,
# mels, mel_frames): mean-pooled frames}), dropped with the model
_pooled_cache = weakref.WeakKeyDictionary()


def _cache_of(model: DiacritizerModel) -> dict:
    """model's pooled-frame cache, emptied if its speech.* SHA-256 changed."""
    digest = hashlib.sha256()
    for name, w in model.params.items():
        if name.startswith("speech."):
            digest.update(np.ascontiguousarray(w.data))
    if _pooled_cache.get(model, (None,))[0] != digest.digest():
        _pooled_cache[model] = (digest.digest(), {})
    return _pooled_cache[model][1]


def _ensemble(models: list[DiacritizerModel], samples: list[tuple[str, Waveform | None]],
              passes: int, p: float, seed: int, cache: bool):
    """Yield (class ids, confidence) of each (raw, waveform): the
    ensemble_average of each model mi's mc_forward, keyed by
    RngStream(seed).child(mi). A sample is log-mel'd once per (mels,
    mel_frames) shape that some model misses, and each miss is encoded alone
    and detached. With cache, each model's speech weights are digested once
    per call, and misses are added to its cache until that is full."""
    caches = [_cache_of(m) if cache else {} for m in models]
    for raw, waveform in samples:
        tokens, rows = models[0].encode_text(raw), models[0].letter_rows(raw)
        audio = None
        if cache and waveform is not None:
            wave = np.ascontiguousarray(waveform.samples)
            audio = hashlib.sha256(wave).digest(), wave.dtype.str
        mels, probs = {}, []
        for mi, (model, hits) in enumerate(zip(models, caches)):
            prefix = None
            if waveform is not None:
                shape = (model.config.mels, model.config.mel_frames)
                key = audio + shape if audio else None
                pooled = hits.get(key)
                if pooled is None:
                    if shape not in mels:
                        mels[shape] = log_mel(waveform, mels=shape[0], frame_budget=shape[1])
                    pooled = next(model.pooled_frames([mels[shape]])).detach()
                    if key and len(hits) < POOLED_CACHE_BYTES // pooled.data.nbytes:
                        hits[key] = pooled
                prefix = model.pool_project(pooled)
            probs.append(mc_forward(model, tokens, prefix, passes, p,
                                    RngStream(seed).child(mi), rows))
        yield ensemble_average(probs)


def diacritize(raw: str, waveform: Waveform | None,
               models: list[DiacritizerModel], cfg: EnsembleConfig) -> tuple[str, list[float]]:
    """Ensemble-predict diacritics for one sample and re-insert them.

    Audio is optional; absent audio means a zero speech prefix (text-only
    path). Returns (diacritized text, per-letter confidence).
    """
    [(classes, confidence)] = _ensemble(models, [(raw, waveform)], cfg.passes_per_model,
                                        cfg.inference_dropout_p, cfg.seed, cache=False)
    return insert_diacritics(raw, classes.tolist()), confidence.tolist()


def predict_greedy_corpus(model: DiacritizerModel,
                          samples: list[tuple[str, Waveform | None]]) -> list[list[int]]:
    """Greedy class ids of each (raw, waveform): the one-pass p = 0 ensemble
    of model at seed 0, with its cache of mean-pooled frames."""
    return [classes.tolist() for classes, _ in _ensemble([model], samples, 1, 0.0, 0, cache=True)]


def predict_greedy(model: DiacritizerModel, raw: str,
                   waveform: Waveform | None) -> list[int]:
    """Greedy prediction of one sentence: a corpus of one. No `src/` code
    calls it; it stays because perfbench's train-desk dev scorer calls it per
    sentence and its layer trace wraps it by name."""
    return predict_greedy_corpus(model, [(raw, waveform)])[0]
