"""MC-Dropout ensemble inference and end-to-end diacritization.

Each checkpoint runs a configurable number of stochastic forward passes
with text-encoder dropout kept active (layer norm has no stochastic state
and is unaffected); softmax probabilities are averaged over every
(model, pass) pair before the per-position argmax. Sub-streams are keyed
by (model index, pass index), so how the passes of a checkpoint are
stacked into forwards cannot change the result. A fixed seed gives every
sentence the same keys, so at desk width each sentence reuses its models'
dropout masks from the numerics memo. At full width one sentence's masks
outgrow the memo's bound, and a sentence whose length changes
mc_forward's stack size misses it, so sentences mostly redraw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .audiofe import Waveform, log_mel
from .errors import ShapeError
from .model import DiacritizerModel, ModelConfig, require_counts, require_range
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


def pass_bytes(config: ModelConfig, seq: int, dtype) -> int:
    """Bytes one pass of a stack adds at its peak: the larger of the
    (heads, seq, seq) attention scores and the (seq, mlp_ratio * dim) MLP
    hidden layer, plus the (seq, dim) dropout mask of the storage dtype and
    the boolean comparison it is built from."""
    itemsize = np.dtype(dtype).itemsize
    widest = max(config.text_heads * seq * seq,
                 config.mlp_ratio * config.text_dim * seq)
    return widest * itemsize + seq * config.text_dim * (itemsize + 1)


def mc_forward(model: DiacritizerModel, tokens: np.ndarray,
               prefix, passes: int, p: float, rng: RngStream) -> np.ndarray:
    """(passes, full positions, 15) softmax probabilities, read-only; pass
    i uses the stream rng.child(i), keyed through rng.child_keys. Passes
    run as stacked forwards of as many passes as fit nm.STACK_BUDGET_BYTES,
    which leaves every pass's output unchanged. At p = 0 every pass is the
    eval output, so only pass 0 runs and its row is repeated."""
    per_pass = pass_bytes(model.config, len(tokens), model.dtype)
    chunk = max(1, nm.STACK_BUDGET_BYTES // per_pass)
    run = passes if p else 1
    out = []
    for start in range(0, run, chunk):
        keys = rng.child_keys(range(start, min(run, start + chunk)))
        logits = model.forward(tokens, prefix, keys, p, grad=False)
        out.append(nm.softmax(logits, axis=-1).data)
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


# greedy decoding: the ensemble of one model with one pass at p=0
GREEDY = EnsembleConfig(passes_per_model=1, inference_dropout_p=0.0)


def _ensemble(raw: str, waveform: Waveform | None,
              models: list[DiacritizerModel], cfg: EnsembleConfig,
              cached: bool = False):
    """ensemble_average over every (model, pass) pair at raw's letter rows;
    cached takes each speech prefix through the model's cache."""
    ref = models[0]
    tokens = ref.encode_text(raw)
    letter_rows = ref.letter_rows(raw)
    run = RngStream(cfg.seed)
    mel_of_shape = {}  # one log-mel per (mels, mel_frames), shared by models

    def mel_of(model):
        shape = (model.config.mels, model.config.mel_frames)
        if shape not in mel_of_shape:
            mel_of_shape[shape] = log_mel(waveform, mels=shape[0], frame_budget=shape[1])
        return mel_of_shape[shape]
    all_probs = []
    for mi, model in enumerate(models):
        prefix = None
        if waveform is not None and cached:
            prefix = model.cached_speech_prefix(waveform, lambda: mel_of(model))
        elif waveform is not None:
            prefix = model.speech_prefix(mel_of(model))
        probs = mc_forward(model, tokens, prefix, cfg.passes_per_model,
                           cfg.inference_dropout_p, run.child(mi))
        all_probs.append(probs[:, letter_rows, :])
    return ensemble_average(all_probs)


def diacritize(raw: str, waveform: Waveform | None,
               models: list[DiacritizerModel], cfg: EnsembleConfig) -> tuple[str, list[float]]:
    """Ensemble-predict diacritics for one sample and re-insert them.

    Audio is optional; absent audio means a zero speech prefix (text-only
    path). Returns (diacritized text, per-letter confidence).
    """
    classes, confidence = _ensemble(raw, waveform, models, cfg)
    text = insert_diacritics(raw, [int(c) for c in classes])
    return text, [float(c) for c in confidence]


def predict_greedy(model: DiacritizerModel, raw: str,
                   waveform: Waveform | None) -> list[int]:
    """Deterministic single-pass argmax prediction (no MC dropout), with
    the speech prefix through the model's cache: dev scoring repeats."""
    classes, _ = _ensemble(raw, waveform, [model], GREEDY, cached=True)
    return [int(c) for c in classes]
