"""Training recipe: focal loss with label smoothing, the two-pass
consistency (R-Drop) objective, AdamW with linear warmup + cosine decay,
the per-epoch freeze policy, and bit-exact checkpoint I/O.

The R-Drop objective runs each sample through the model twice with
different dropout masks and adds alpha times the symmetric KL divergence
between the two softmax outputs to the mean of the two focal losses. Each
loss is one autodiff op with an analytic backward, on the (2, letters, 15)
stack of the pair's letter-row logits, which it normalises itself. Each
sample of a batch draws its own noise and SpecAugment; the frozen speech
encoder then runs over the batch's log-mels in stacks of model.stack_size
utterances (a desk batch is one stack).

A checkpoint is written and read in one pass, each tensor straight between
the file and its own array, hashed on the way; a read holds about the
file's size, and a file whose SHA-256 trailer does not match its body is
refused as corrupt before any parse error of that body is reported.
"""

from __future__ import annotations

import ast
import hashlib
import math
import os
import stat
import struct
from dataclasses import dataclass, fields, replace

import numpy as np

from . import numerics as nm
from .audiofe import inject_noise, log_mel, spec_augment
from .errors import ConfigError, FingerprintError, FormatError, NumericError
from .model import (DiacritizerModel, ModelConfig, require_counts,
                    require_range, speech_embedding_dropout)
from .numerics import RngStream, Tensor
from .textproc import ARABIC_LETTERS, NUM_CLASSES, Vocabulary


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 4.1e-6
    rdrop_alpha: float = 2.08
    focal_gamma: float = 0.34
    label_smoothing: float = 0.018
    weight_decay: float = 0.098
    speech_emb_dropout: float = 0.09
    batch_size: int = 16
    epochs: int = 40
    warmup_epochs: int = 3
    min_lr_factor: float = 0.002
    specaug_freq: int = 10
    specaug_time: int = 63
    snr_range: tuple[float, float] = (10.0, 30.0)
    whisper_unfrozen: int = 0
    unfreeze_at_epoch: int | None = None
    seed: int = 42

    def __post_init__(self):
        require_counts(self, ("batch_size", "epochs"))
        require_counts(self, ("warmup_epochs", "specaug_freq", "specaug_time",
                              "whisper_unfrozen"), minimum=0)
        if self.unfreeze_at_epoch is not None:
            require_counts(self, ("unfreeze_at_epoch",), minimum=0)
        require_counts(self, ("seed",), minimum=None)
        snr = self.snr_range
        if not (isinstance(snr, (tuple, list)) and len(snr) == 2 and all(
                isinstance(v, (int, float, np.integer, np.floating))
                and not isinstance(v, bool) and math.isfinite(v) for v in snr)
                and snr[0] <= snr[1]):
            raise ConfigError(f"snr_range must be a pair of finite numbers "
                              f"lo <= hi, got {snr!r}")
        if not 0 < self.learning_rate:
            raise ConfigError("learning_rate must be positive")
        if self.warmup_epochs >= self.epochs:
            raise ConfigError("warmup_epochs must be < epochs")
        require_range(self, ("min_lr_factor", "speech_emb_dropout"), 0.0, 1.0)
        require_range(self, ("focal_gamma", "label_smoothing", "weight_decay",
                             "rdrop_alpha"), 0.0, math.inf)


def table1_primary(seed: int = 42) -> TrainConfig:
    """The tuned primary recipe."""
    return TrainConfig(seed=seed)


def alt_checkpoint4(seed: int = 42) -> TrainConfig:
    """The diversity configuration for the fourth ensemble member."""
    return replace(table1_primary(seed=seed), learning_rate=4.7e-5,
                   batch_size=32, focal_gamma=1.0, label_smoothing=0.108,
                   whisper_unfrozen=4, unfreeze_at_epoch=15)


def desk_recipe(seed: int = 42) -> TrainConfig:
    """Fast-convergence settings for the tiny synthetic setup: higher peak
    lr, small batches for more steps, augmentation off."""
    return TrainConfig(learning_rate=3e-3, rdrop_alpha=0.5, weight_decay=0.01,
                       batch_size=8, epochs=25, warmup_epochs=3,
                       specaug_freq=0, specaug_time=0, snr_range=(30.0, 30.0),
                       speech_emb_dropout=0.0, seed=seed)


TRAIN_PRESETS = {
    "table1-primary": table1_primary,
    "alt-checkpoint4": alt_checkpoint4,
    "desk": desk_recipe,
}


# -- losses --------------------------------------------------------------


def focal_loss_ls(logits: Tensor, targets: np.ndarray, gamma: float,
                  epsilon: float) -> Tensor:
    """Label-smoothed focal loss of (..., letters, 15) logits against shared
    (letters,) targets: the mean over leading rows of each row's letter mean.

    Per position, with smoothed target q_k = (1-eps)*1[k=t] + eps/K and
    p = softmax(logits): sum_k q_k * (1-p_k)^gamma * (-log p_k), p and 1-p
    clamped at 1e-12; no gradient flows where a clamp binds."""
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != logits.shape[-2:-1]:
        raise nm.ShapeError(f"{targets.shape} targets for logit rows "
                            f"{logits.shape[:-1]}")
    bad = np.nonzero((targets < 0) | (targets >= NUM_CLASSES))[0]
    if bad.size:
        raise ConfigError(f"target class {targets[bad[0]]} out of range at "
                          f"position {int(bad[0])}")
    n, rows = len(targets), math.prod(logits.shape[:-2])
    q = np.full((n, NUM_CLASSES), epsilon / NUM_CLASSES, dtype=np.float64)
    q[np.arange(n), targets] += 1.0 - epsilon
    p = nm.softmax(logits.data)
    u = 1.0 - p
    pc, uc = np.maximum(p, 1e-12), np.maximum(u, 1e-12)
    logp = np.log(pc)
    w = q.astype(logits.dtype) * uc ** gamma
    per_pos = np.sum(w * -logp, axis=-1, dtype=np.float64).astype(logits.dtype)
    means = np.sum(per_pos, axis=-1, dtype=np.float64).astype(per_pos.dtype) * (1.0 / n)

    def bwd(g):
        # d/dp of w * -log p, w = q (1-p)^gamma: gamma w log(p) / (1-p) - w / p
        dp = gamma * w / uc * logp * (u >= 1e-12) - w / pc * (p >= 1e-12)
        dp *= g / (rows * n)
        logits._accumulate(nm.softmax_grad(dp, p))
    return Tensor(np.sum(means) * (1.0 / rows), _parents=(logits,), _backward=bwd)


def sym_kl(pair: Tensor) -> Tensor:
    """Mean over positions of (KL(p||q) + KL(q||p)) / 2, p and q the
    softmax of the (2, ..., 15) stack of a pair's logits, probabilities
    clamped at 1e-12; no gradient flows where a clamp binds."""
    if pair.shape[:1] != (2,):
        raise nm.ShapeError(f"expected a (2, ..., classes) pair, got {pair.shape}")
    p = nm.softmax(pair.data)
    pc = np.maximum(p, 1e-12)
    # row 1 is row 0 negated, bit for bit
    log_ratio = np.log(pc) - np.log(pc[::-1])
    kl = np.sum(pc * log_ratio, axis=-1, dtype=np.float64).astype(pair.dtype)
    n = kl[0].size

    def bwd(g):
        # d/da of (a - b)(log a - log b) / 2 is (log(a/b) + 1 - b/a) / 2
        dp = (log_ratio + 1.0 - pc[::-1] / pc) * (p >= 1e-12) * (g * 0.5 / n)
        pair._accumulate(nm.softmax_grad(dp, p))
    total = np.sum((kl[0] + kl[1]) * 0.5, dtype=np.float64).astype(pair.dtype)
    return Tensor(total * (1.0 / n), _parents=(pair,), _backward=bwd)


@dataclass
class PreparedSample:
    """One training example after feature/label preparation."""

    tokens: np.ndarray          # prefix ids + char ids
    letter_rows: np.ndarray     # logit row indices of Arabic letters
    targets: np.ndarray         # diacritic class per letter
    prefix: Tensor | None       # projected speech prefix (graph-attached) or None


def rdrop_objective(samples: list[PreparedSample], model: DiacritizerModel,
                    cfg: TrainConfig, rng: RngStream) -> Tensor:
    """Two dropout-perturbed passes per sample; mean focal loss plus the
    alpha-weighted symmetric KL consistency penalty, averaged over samples.
    Same-length samples with (or without) audio run as one forward, where
    sample si draws its passes from rng.child(si).child_keys([1, 2])."""
    buckets: dict[tuple, list[int]] = {}
    for si, s in enumerate(samples):
        buckets.setdefault((len(s.tokens), s.prefix is None), []).append(si)
    losses = [None] * len(samples)
    for members in buckets.values():
        prefix = None
        if samples[members[0]].prefix is not None:
            prefix = nm.concat([speech_embedding_dropout(
                samples[si].prefix, cfg.speech_emb_dropout, rng.child(si).child(0))
                .reshape(1, model.config.prefix_len, -1) for si in members])
        tokens = np.stack([samples[si].tokens for si in members])
        keys = np.concatenate([rng.child(si).child_keys([1, 2]) for si in members])
        logits = model.forward(tokens, prefix, keys)
        # a sample's pair is gathered from the bucket's (2B * seq, 15) rows
        flat, seq = logits.reshape(-1, NUM_CLASSES), tokens.shape[1]
        for b, si in enumerate(members):
            s = samples[si]
            rows = nm.embedding(flat, s.letter_rows + [[2 * b * seq], [(2 * b + 1) * seq]])
            obj = focal_loss_ls(rows, s.targets, cfg.focal_gamma, cfg.label_smoothing)
            if cfg.rdrop_alpha != 0.0:
                obj = obj + cfg.rdrop_alpha * sym_kl(rows)
            losses[si] = obj
    return sum(losses[1:], losses[0]) * (1.0 / len(losses))


# -- optimizer and schedule ----------------------------------------------


class OptimizerState:
    """AdamW moments; beta1=0.9, beta2=0.999, eps=1e-8."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step = 0


def adamw_step(params: dict[str, Tensor], state: OptimizerState, lr: float,
               weight_decay: float):
    """Bias-corrected Adam update plus decoupled decay; frozen or grad-less
    parameters are untouched. Aborts before mutating anything on a
    non-finite gradient.

    Each parameter's flat gradient, moments and values are walked in blocks
    of nm.ROW_BLOCK_BYTES // 32 elements (four float64 streams) through two
    float64 scratch blocks kept for the whole step. Each element takes the
    whole-array form's float64 operations in its order, so the bits are
    that form's; m and v are updated in place, and the new values go into
    a new array that replaces p.data."""
    for name, p in params.items():
        if p.requires_grad and p.grad is not None and \
                not np.all(np.isfinite(p.grad)):
            raise NumericError(f"non-finite gradient in parameter {name!r}")
    state.step += 1
    t = state.step
    b1, b2, eps = OptimizerState.BETA1, OptimizerState.BETA2, OptimizerState.EPS
    block = nm.ROW_BLOCK_BYTES // 32
    g_scratch, tmp_scratch = np.empty(block), np.empty(block)
    for name, p in params.items():
        if not p.requires_grad or p.grad is None:
            continue
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros(p.grad.shape), np.zeros(p.grad.shape)
        new = np.empty(p.data.shape, p.data.dtype)
        flat = [a.reshape(-1) for a in (p.grad, state.m[name], state.v[name], p.data, new)]
        for i in range(0, new.size, block):
            grad, m, v, data, out = (a[i:i + block] for a in flat)
            g, tmp = g_scratch[:len(out)], tmp_scratch[:len(out)]
            # m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g, new = p - lr*mhat
            # / (sqrt(vhat) + eps), new -= (lr*wd)*new: m, v in place, new in g
            g[...] = grad
            np.multiply(1 - b1, g, out=tmp)
            m *= b1
            m += tmp
            np.multiply(g, 1 - b2, out=tmp)
            tmp *= g
            v *= b2
            v += tmp
            np.sqrt(np.divide(v, 1 - b2 ** t, out=tmp), out=tmp)
            tmp += eps
            np.multiply(np.divide(m, 1 - b1 ** t, out=g), lr, out=g)
            g /= tmp
            np.subtract(data, g, out=g)
            g -= np.multiply(g, lr * weight_decay, out=tmp)
            out[...] = g
        p.data = new
        flat = data = None  # the old values go before the next parameter's arrive


def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear warmup from 0, then cosine decay to min_lr_factor * peak."""
    if step > total_steps:
        raise ConfigError(f"step {step} exceeds total_steps {total_steps}")
    warmup_steps = round(total_steps * cfg.warmup_epochs / cfg.epochs)
    peak = cfg.learning_rate
    if warmup_steps > 0 and step < warmup_steps:
        return peak * step / warmup_steps
    lr_min = cfg.min_lr_factor * peak
    denom = max(total_steps - warmup_steps, 1)
    progress = (step - warmup_steps) / denom
    return lr_min + (peak - lr_min) * 0.5 * (1.0 + math.cos(math.pi * progress))


def apply_freeze_policy(model: DiacritizerModel, epoch: int, cfg: TrainConfig):
    """Primary: speech encoder always frozen. Alt: top whisper_unfrozen
    blocks become trainable starting the epoch after unfreeze_at_epoch."""
    unfrozen = 0
    if cfg.whisper_unfrozen > 0 and (cfg.unfreeze_at_epoch is None or
                                     epoch > cfg.unfreeze_at_epoch):
        unfrozen = cfg.whisper_unfrozen
    model.freeze_speech_blocks(trainable_top=unfrozen)


# -- checkpoint format ---------------------------------------------------

# Header: magic, format version, entry count; the body's SHA-256 digest
# ends the file.
_MAGIC = b"CWDK"
_VERSION = 2
_SEAL = 32


def encode_config(cfg) -> dict[str, str]:
    """Field name -> repr of its value, in field order."""
    return {f.name: repr(getattr(cfg, f.name)) for f in fields(cfg)}


def decode_config(cls, items):
    """Rebuild a config from (field name, repr) pairs, later pairs winning;
    ConfigError for an unknown field, a non-literal or a rejected value."""
    known = {f.name for f in fields(cls)}
    kwargs = {}
    for name, text in items:
        if name not in known:
            raise ConfigError(f"unknown {cls.__name__} field {name!r}")
        try:
            kwargs[name] = ast.literal_eval(text)
        except (SyntaxError, ValueError, TypeError, MemoryError, RecursionError):
            raise ConfigError(f"{cls.__name__} field {name!r} is not a Python "
                              f"literal") from None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid {cls.__name__}: {e}") from None


def serialize_config(cfg) -> str:
    """field=repr pairs joined with ';' (no field value contains ';')."""
    return ";".join(f"{k}={v}" for k, v in encode_config(cfg).items())


def deserialize_config(cls, text: str):
    return decode_config(cls, (pair.partition("=")[::2] for pair in text.split(";")))


def config_fingerprint(model_cfg: ModelConfig, train_cfg: TrainConfig) -> str:
    text = f"{serialize_config(model_cfg)};{serialize_config(train_cfg)}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _entry_header(name: str, extents) -> bytes:
    nb = name.encode("utf-8")
    return struct.pack(f"<I{len(nb)}sI{len(extents)}Q", len(nb), nb,
                       len(extents), *extents)


def save_checkpoint(path, model: DiacritizerModel, meta: dict):
    """Write named parameter tensors plus a __meta entry, SHA-256 trailer.

    Each tensor's bytes go to the file and the hash straight from its
    array. The file is written beside `path` under a temporary name, synced
    to disk and renamed over it, so a failed write or a crash leaves any
    earlier file at `path` as it was. Metadata is stored as "key=value"
    lines of UTF-8, so a key holding "=" or a newline, a value holding a
    newline, text holding a lone surrogate (which UTF-8 cannot encode) and
    two keys with one text form are refused (ConfigError) before anything
    is written."""
    meta = dict(meta)
    meta.setdefault("vocab", model.vocab.chars)
    text = {str(k): str(v) for k, v in meta.items()}
    if len(text) != len(meta):
        raise ConfigError("two metadata keys have the same text form")
    lines = []
    for k, v in text.items():
        if "=" in k or "\n" in k:
            raise ConfigError(f"metadata key {k!r} holds '=' or a newline")
        if "\n" in v:
            raise ConfigError(f"metadata value of {k!r} holds a newline")
        try:
            lines.append(f"{k}={v}\n".encode("utf-8"))
        except UnicodeEncodeError:
            raise ConfigError(f"metadata entry {k!r} holds a lone surrogate") from None
    meta_blob = b"".join(lines)

    def chunks():
        yield _MAGIC + struct.pack("<II", _VERSION, len(model.params) + 1)
        for name in sorted(model.params):
            arr = np.ascontiguousarray(model.params[name].data, dtype="<f4")
            yield _entry_header(name, arr.shape)
            yield memoryview(arr).cast("B")
        yield _entry_header("__meta", (len(meta_blob),))
        yield meta_blob

    digest = hashlib.sha256()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks():
                digest.update(chunk)
                f.write(chunk)
            f.write(digest.digest())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Parse and integrity-check a checkpoint file in one forward pass.

    Each tensor is read straight into its own array and hashed from it, so
    a read holds about the file's size. Any file whose trailer does not
    match its body is refused as corrupt, whatever its body holds: on a
    parse error the rest of the body is hashed before either is reported."""
    with open(path, "rb") as f:
        head = f.read(12)
        if len(head) < 12 or head[:4] != _MAGIC:
            raise FormatError(f"{path}: not a checkpoint file")
        version, count = struct.unpack_from("<II", head, 4)
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        st = os.fstat(f.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise FormatError(f"{path}: not a regular file (a checkpoint is "
                              f"read with its size known)")
        end = st.st_size - _SEAL
        if end < 12:
            raise FormatError(f"{path}: not a checkpoint file")
        digest = hashlib.sha256(head)
        pos = 12  # the digest covers the body up to here
        tensors: dict[str, np.ndarray] = {}
        meta: dict[str, str] = {}
        seen: set[str] = set()

        def take(n: int, what: str) -> bytes:
            nonlocal pos
            if n > end - pos:
                raise FormatError(f"{path}: {what} runs past the end of the body")
            chunk = f.read(n)
            if len(chunk) != n:
                raise FormatError(f"{path}: file ended inside {what} while being read")
            digest.update(chunk)
            pos += n
            return chunk

        def read_tensor(name: str, extents) -> np.ndarray:
            nonlocal pos
            nbytes = 4 * math.prod(extents)
            if nbytes > end - pos:  # refused before anything is allocated
                raise FormatError(f"{path}: tensor {name!r} runs past the end of the body")
            try:
                arr = np.empty(extents, dtype="<f4")
            except ValueError:
                # zero-size extents numpy cannot shape, e.g. (0, 2**63)
                raise FormatError(f"{path}: tensor {name!r} extents "
                                  f"{extents} are out of range") from None
            if f.readinto(arr) != nbytes:
                raise FormatError(f"{path}: file ended inside tensor {name!r} "
                                  f"while being read")
            digest.update(arr)
            pos += nbytes
            return arr

        def utf8(chunk: bytes) -> str:
            try:
                return str(chunk, "utf-8")
            except UnicodeDecodeError as e:
                raise FormatError(f"{path}: entry is not valid UTF-8 "
                                  f"({e.reason})") from None

        error = None
        try:
            for _ in range(count):
                (name_len,) = struct.unpack("<I", take(4, "entry header"))
                name = utf8(take(name_len, "entry name"))
                (rank,) = struct.unpack("<I", take(4, "entry rank"))
                extents = struct.unpack(f"<{rank}Q", take(8 * rank, "entry extents"))
                if name in seen:
                    raise FormatError(f"{path}: entry {name!r} appears twice")
                seen.add(name)
                if name == "__meta":
                    if rank != 1:
                        raise FormatError(f"{path}: __meta entry has rank {rank}")
                    # lines end in "\n" only: a value may hold "\r" or U+2028
                    text = utf8(take(extents[0], "__meta payload"))
                    for line in filter(None, text.split("\n")):
                        k, _, v = line.partition("=")
                        if k in meta:
                            raise FormatError(f"{path}: metadata key {k!r} appears twice")
                        meta[k] = v
                else:
                    tensors[name] = read_tensor(name, extents)
            if pos != end:
                raise FormatError(f"{path}: trailing bytes after last entry")
        except FormatError as e:
            error = e
        # hash what a parse error left unread, from the last byte hashed on
        f.seek(pos)
        while pos < end and (chunk := f.read(min(end - pos, 1 << 20))):
            digest.update(chunk)
            pos += len(chunk)
        if pos != end or digest.digest() != f.read(_SEAL):
            raise FormatError(f"{path}: trailer checksum mismatch (corrupt file)")
        if error is not None:
            raise error
    return tensors, meta


def _stored_config(path, meta: dict[str, str], key: str, cls):
    """Rebuild a config from checkpoint metadata; FormatError when the entry
    is missing, does not parse, names an unknown field or is rejected."""
    if key not in meta:
        raise FormatError(f"{path}: metadata has no {key} entry")
    try:
        return deserialize_config(cls, meta[key])
    except ConfigError as e:
        raise FormatError(f"{path}: unreadable {key} metadata: {e}") from None


def load_checkpoint(path, model_cfg: ModelConfig | None = None,
                    train_cfg: TrainConfig | None = None,
                    vocab: Vocabulary | None = None) -> DiacritizerModel:
    """Rebuild a model; refuses files whose fingerprint does not match.

    With no configs supplied, they are reconstructed from the checkpoint's
    own metadata and the stored fingerprint is still re-verified.
    """
    tensors, meta = read_checkpoint(path)
    if model_cfg is None:
        model_cfg = _stored_config(path, meta, "model_cfg", ModelConfig)
    if train_cfg is None:
        train_cfg = _stored_config(path, meta, "train_cfg", TrainConfig)
    expected = config_fingerprint(model_cfg, train_cfg)
    stored = meta.get("fingerprint", "")
    if stored != expected:
        raise FingerprintError(
            f"checkpoint fingerprint {stored} does not match supplied "
            f"config fingerprint {expected}")
    if vocab is None:
        if "vocab" not in meta:
            raise FormatError(f"{path}: metadata has no vocab entry")
        vocab = Vocabulary(meta["vocab"])
    try:
        return DiacritizerModel(model_cfg, vocab, weights=tensors)
    except (ConfigError, nm.ShapeError) as e:
        # a vocabulary too large for the config, a tensor missing or misshapen
        raise FormatError(f"{path}: {e}") from None


# -- the training loop ---------------------------------------------------


@dataclass
class CorpusSample:
    """Gold training sample: undiacritized text, labels, float32 samples."""

    sample_id: str
    raw: str
    targets: np.ndarray         # diacritic class per Arabic letter of raw
    waveform: np.ndarray | None


def prepare_sample(model: DiacritizerModel, samples: list[CorpusSample],
                   cfg: TrainConfig, rngs: list[RngStream]) -> list[PreparedSample]:
    """Augment audio, extract features and bundle token/target arrays for
    each example of a batch, sample i drawing from rngs[i]; the speech
    encoder runs over the batch's log-mels together (see
    `DiacritizerModel.pooled_frames`). A sample with no waveform gets no
    prefix: the text-only path."""
    mcfg = model.config
    mels = []
    for sample, rng in zip(samples, rngs, strict=True):
        if sample.waveform is not None:
            w = inject_noise(sample.waveform, cfg.snr_range, rng.child(0))
            mel = log_mel(w, mels=mcfg.mels, frame_budget=mcfg.mel_frames)
            mels.append(spec_augment(mel, cfg.specaug_freq, cfg.specaug_time, rng.child(1)))
    prefixes = map(model.pool_project, model.pooled_frames(mels))
    return [PreparedSample(tokens=model.encode_text(s.raw),
                           letter_rows=model.letter_rows(s.raw),
                           targets=np.asarray(s.targets, dtype=np.int64),
                           prefix=None if s.waveform is None else next(prefixes))
            for s in samples]


def check_text_lengths(texts, config: ModelConfig):
    """ConfigError for the first (sample id, undiacritized text) pair whose
    text is longer than config.max_text_len."""
    for sample_id, raw in texts:
        if len(raw) > config.max_text_len:
            raise ConfigError(f"sample {sample_id!r}: text length {len(raw)} "
                              f"exceeds maximum {config.max_text_len}")


def check_run(corpus: list[CorpusSample], model: DiacritizerModel,
              cfg: TrainConfig):
    """ConfigError for a run that would fail once started: an empty corpus,
    a sample with no Arabic letter to train on, a text longer than
    max_text_len, a SpecAugment band wider than the mel grid, or more
    speech blocks to unfreeze than the model has."""
    mcfg = model.config
    if not corpus:
        raise ConfigError("empty training corpus")
    for s in corpus:
        if ARABIC_LETTERS.isdisjoint(s.raw):
            raise ConfigError(f"sample {s.sample_id!r}: no Arabic letter to train on")
    check_text_lengths(((s.sample_id, s.raw) for s in corpus), mcfg)
    for name, value, limit, unit in (
            ("specaug_freq", cfg.specaug_freq, mcfg.mels, "mel bins"),
            ("specaug_time", cfg.specaug_time, mcfg.mel_frames, "mel frames")):
        if value > limit:
            raise ConfigError(f"{name} {value} exceeds the model's {limit} {unit}")
    if cfg.whisper_unfrozen > mcfg.speech_blocks:
        raise ConfigError(f"cannot unfreeze {cfg.whisper_unfrozen} of "
                          f"{mcfg.speech_blocks} speech blocks")


def fit(corpus: list[CorpusSample], model: DiacritizerModel, cfg: TrainConfig,
        out_dir=None, dev_scorer=None, log=None) -> dict:
    """Run the full recipe; returns a history dict with per-epoch loss, lr
    and dev WER and, when out_dir is set, the path of the run's one
    checkpoint, out_dir/selected.ckpt, under "selected".

    dev_scorer, when given, is called with the model after each epoch and
    must return a finite WER fraction (NumericError otherwise). The
    checkpoint is written when an epoch's dev WER beats every earlier one,
    so the earliest best epoch wins; without a scorer it is written every
    epoch and the final epoch wins. Each write replaces the file atomically
    (see save_checkpoint), and its "epoch" metadata names the epoch.
    """
    check_run(corpus, model, cfg)
    run_rng = RngStream(cfg.seed)
    n_batches = math.ceil(len(corpus) / cfg.batch_size)
    total_steps = cfg.epochs * n_batches
    state = OptimizerState()
    fingerprint = config_fingerprint(model.config, cfg)
    history = {"loss": [], "lr": [], "dev_wer": [], "fingerprint": fingerprint}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        history["selected"] = os.path.join(out_dir, "selected.ckpt")
    step = 0
    best = math.inf
    for epoch in range(1, cfg.epochs + 1):
        apply_freeze_policy(model, epoch, cfg)
        erng = run_rng.child(epoch)
        order = erng.child(0).generator().permutation(len(corpus))
        epoch_loss = 0.0
        for b in range(n_batches):
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            brng = erng.child(1 + b)
            samples = prepare_sample(model, [corpus[i] for i in idx], cfg,
                                     [brng.child(int(i)) for i in idx])
            loss = rdrop_objective(samples, model, cfg, brng.child(-1))
            loss.backward()
            epoch_loss += loss.item()
            # the sweep has freed the graph; the loss and the prefixes' arrays
            # go before AdamW allocates, and the gradients once AdamW has read
            # them; apply_freeze_policy leaves none at an epoch's start
            del samples, loss
            adamw_step(model.params, state, lr_at(step, total_steps, cfg), cfg.weight_decay)
            model.zero_grad()
            step += 1
        history["loss"].append(epoch_loss / n_batches)
        history["lr"].append(lr_at(step, total_steps, cfg))
        dev_wer = dev_scorer(model) if dev_scorer is not None else None
        if dev_wer is not None and not math.isfinite(dev_wer):
            raise NumericError(f"epoch {epoch}: dev WER {dev_wer} is not finite")
        history["dev_wer"].append(dev_wer)
        # without a scorer dev_wer is None every epoch, and every epoch is saved
        if out_dir is not None and (dev_wer is None or dev_wer < best):
            best = dev_wer
            save_checkpoint(history["selected"], model, {
                "seed": cfg.seed, "epoch": epoch, "fingerprint": fingerprint,
                "model_cfg": serialize_config(model.config),
                "train_cfg": serialize_config(cfg)})
        if log is not None:
            log(f"epoch {epoch}/{cfg.epochs} loss={history['loss'][-1]:.4f} "
                f"lr={history['lr'][-1]:.3e}"
                + (f" dev_wer={dev_wer:.4f}" if dev_wer is not None else ""))
    return history
