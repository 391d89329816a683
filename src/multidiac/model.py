"""The fused architecture: frozen speech encoder, mean-pool + linear
projection, additive prefix fusion into a character-level text encoder,
and a 15-way per-letter classification head.

Projected speech vectors are added to the embeddings of `prefix_len`
dedicated prefix positions that precede the text tokens; a zero prefix is
therefore exactly the text-only model. The speech encoder's parameters
can be frozen per block; frozen tensors never receive gradient. Every
prefix is `pool_project` of `pooled_frames`, which encodes and mean-pools
log-mels, a frozen encoder's as stacks, each row bitwise its own call.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .audiofe import MelSpectrogram
from .errors import ConfigError, ShapeError
from .numerics import RngStream, Tensor
from .textproc import NUM_CLASSES, Vocabulary, letter_indices


# ModelConfig fields that size the model: each must be a positive integer
_COUNT_FIELDS = ("text_layers", "text_dim", "text_heads", "speech_blocks",
                 "speech_dim", "speech_heads", "speech_frames", "prefix_len",
                 "pool_factor", "mels", "mlp_ratio", "vocab_size", "max_text_len")


def require_counts(cfg, names, minimum: int | None = 1):
    """ConfigError unless each named field of cfg is an integer of at least
    `minimum` (any integer when minimum is None)."""
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
                or (minimum is not None and value < minimum):
            bound = "" if minimum is None else f" >= {minimum}"
            raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")


def require_range(cfg, names, lo: float, hi: float, hi_open: bool = False):
    """ConfigError unless each named field of cfg is a finite number in
    [lo, hi], or in [lo, hi) when hi_open."""
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, bool) or \
                not isinstance(value, (int, float, np.integer, np.floating)) \
                or not math.isfinite(value) or not lo <= value <= hi \
                or (hi_open and value == hi):
            raise ConfigError(f"{name} must be a finite number in [{lo}, {hi}"
                              f"{')' if hi_open else ']'}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    text_layers: int = 6
    text_dim: int = 512
    text_heads: int = 16
    speech_blocks: int = 6
    speech_dim: int = 512
    speech_heads: int = 8
    speech_frames: int = 1500
    prefix_len: int = 150
    pool_factor: int = 10
    num_classes: int = NUM_CLASSES
    dropout_p: float = 0.1
    mels: int = 80
    mlp_ratio: int = 4
    vocab_size: int = 100
    max_text_len: int = 512

    def __post_init__(self):
        require_counts(self, _COUNT_FIELDS)
        require_range(self, ("dropout_p",), 0.0, 1.0, hi_open=True)
        if self.speech_frames != self.prefix_len * self.pool_factor:
            raise ConfigError(
                f"speech_frames {self.speech_frames} != prefix_len "
                f"{self.prefix_len} x pool_factor {self.pool_factor}")
        if self.text_dim % self.text_heads != 0:
            raise ConfigError("text_dim not divisible by text_heads")
        if self.speech_dim % self.speech_heads != 0:
            raise ConfigError("speech_dim not divisible by speech_heads")
        if self.num_classes != NUM_CLASSES:
            raise ConfigError(f"num_classes must be {NUM_CLASSES}")

    @property
    def mel_frames(self) -> int:
        # stride-2 conv stem halves time
        return 2 * self.speech_frames


def full_scale_config(vocab_size: int = 100) -> ModelConfig:
    return ModelConfig(vocab_size=vocab_size)


def desk_config(vocab_size: int = 40) -> ModelConfig:
    """Minutes-scale CPU preset."""
    return ModelConfig(text_layers=2, text_dim=64, text_heads=2,
                       speech_blocks=2, speech_dim=64, speech_heads=2,
                       speech_frames=100, prefix_len=10, pool_factor=10,
                       vocab_size=vocab_size)


def stack_size(config: ModelConfig, dtype, seq: int | None = None) -> int:
    """How many items one no-graph stacked forward takes within
    nm.STACK_BUDGET_BYTES: one attention group (nm.ATTENTION_GROUP_BYTES)
    per stack, and per item what a block holds of it, the MLP hidden layer
    and four (rows, dim) arrays beside it. seq sizes MC passes of a text
    forward, charged once; None sizes frozen-encoder utterances, charged
    twice, the margin that keeps a full-width stack at one utterance."""
    rows, dim, charge = (config.speech_frames, config.speech_dim, 2) if seq is None \
        else (seq, config.text_dim, 1)
    item = charge * (config.mlp_ratio + 4) * rows * dim * np.dtype(dtype).itemsize
    return max(1, (nm.STACK_BUDGET_BYTES - nm.ATTENTION_GROUP_BYTES) // item)


@functools.lru_cache(maxsize=8)
def sinusoidal_table(length: int, dim: int) -> np.ndarray:
    """(length, dim) float32 sines and cosines of the positions. Cached and
    shared by every model of that shape, so it is returned read-only."""
    pos = np.arange(length)[:, None]
    inv = np.exp(-np.arange(0, dim, 2) * (math.log(10000.0) / dim))[None, :]
    table = np.zeros((length, dim), dtype=np.float32)
    table[:, 0::2] = np.sin(pos * inv)
    table[:, 1::2] = np.cos(pos * inv)
    table.flags.writeable = False
    return table


def _block_param_shapes(dim: int, mlp_ratio: int) -> dict[str, tuple]:
    hidden = dim * mlp_ratio
    return {
        "ln1.g": (dim,), "ln1.b": (dim,),
        "attn.wq": (dim, dim), "attn.bq": (dim,),
        "attn.wk": (dim, dim), "attn.bk": (dim,),
        "attn.wv": (dim, dim), "attn.bv": (dim,),
        "attn.wo": (dim, dim), "attn.bo": (dim,),
        "ln2.g": (dim,), "ln2.b": (dim,),
        "mlp.w1": (dim, hidden), "mlp.b1": (hidden,),
        "mlp.w2": (hidden, dim), "mlp.b2": (dim,),
    }


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    shapes: dict[str, tuple] = {}
    shapes["speech.conv1.w"] = (cfg.speech_dim, cfg.mels, 3)
    shapes["speech.conv1.b"] = (cfg.speech_dim,)
    shapes["speech.conv2.w"] = (cfg.speech_dim, cfg.speech_dim, 3)
    shapes["speech.conv2.b"] = (cfg.speech_dim,)
    for i in range(cfg.speech_blocks):
        for k, s in _block_param_shapes(cfg.speech_dim, cfg.mlp_ratio).items():
            shapes[f"speech.block{i}.{k}"] = s
    shapes["speech.ln_post.g"] = (cfg.speech_dim,)
    shapes["speech.ln_post.b"] = (cfg.speech_dim,)
    shapes["proj.w"] = (cfg.speech_dim, cfg.text_dim)
    shapes["proj.b"] = (cfg.text_dim,)
    shapes["text.char_emb"] = (cfg.vocab_size, cfg.text_dim)
    shapes["text.pos_emb"] = (cfg.prefix_len + cfg.max_text_len, cfg.text_dim)
    for i in range(cfg.text_layers):
        for k, s in _block_param_shapes(cfg.text_dim, cfg.mlp_ratio).items():
            shapes[f"text.block{i}.{k}"] = s
    shapes["text.ln_f.g"] = (cfg.text_dim,)
    shapes["text.ln_f.b"] = (cfg.text_dim,)
    shapes["text.head.w"] = (cfg.text_dim, cfg.num_classes)
    shapes["text.head.b"] = (cfg.num_classes,)
    return shapes


def count_parameters(cfg: ModelConfig) -> tuple[int, int]:
    """Analytic (total, trainable) parameter counts; trainable excludes the
    frozen speech stem and blocks (primary freeze policy)."""
    total = 0
    trainable = 0
    for name, shape in _param_shapes(cfg).items():
        n = int(np.prod(shape))
        total += n
        if not name.startswith("speech."):
            trainable += n
    return total, trainable


def _initial_value(name: str, shape: tuple, gen: np.random.Generator) -> np.ndarray:
    """Float64 initial value of one parameter; normals draw from gen."""
    if name.endswith((".g",)):
        return np.ones(shape)
    if name.endswith((".b", ".bq", ".bk", ".bv", ".bo", ".b1", ".b2")):
        return np.zeros(shape)
    if name == "text.pos_emb":
        # structured positional basis; learned from here
        return sinusoidal_table(shape[0], shape[1]).astype(np.float64)
    if name.endswith("_emb"):
        return gen.normal(0.0, 0.1, size=shape)
    # fan-in scaled so activations stay unit scale; conv fan-in includes the
    # kernel width
    if name.endswith("conv1.w") or name.endswith("conv2.w"):
        fan_in = shape[1] * shape[2]
    else:
        fan_in = shape[0]
    return gen.normal(0.0, fan_in ** -0.5, size=shape)


class DiacritizerModel:
    """Parameter store plus forward passes for both encoders."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary,
                 init_rng: RngStream | None = None, dtype=np.float32,
                 weights: dict[str, np.ndarray] | None = None):
        """Random init from init_rng, or, when `weights` is given, the
        parameters taken from it (ShapeError for a missing name or a wrong
        shape; names the model does not have are ignored) with no draw."""
        if len(vocab) > config.vocab_size:
            raise ConfigError(f"vocab has {len(vocab)} entries but config "
                              f"allows {config.vocab_size}")
        self.config = config
        self.vocab = vocab
        self.dtype = dtype
        if weights is None:
            gen = (init_rng or RngStream(0)).generator()
        self.params: dict[str, Tensor] = {}
        for name, shape in _param_shapes(config).items():
            if weights is None:
                data = _initial_value(name, shape, gen)
            elif name not in weights:
                raise ShapeError(f"missing tensor {name!r}")
            elif weights[name].shape != shape:
                raise ShapeError(f"tensor {name!r} has shape "
                                 f"{weights[name].shape}, expected {shape}")
            else:
                data = weights[name]
            self.params[name] = nm.tensor(data, dtype=dtype, requires_grad=True)
        self._sin_table = nm.tensor(
            sinusoidal_table(config.speech_frames, config.speech_dim), dtype=dtype)
        self.freeze_speech_blocks(trainable_top=0)

    # -- freezing -------------------------------------------------------

    def freeze_speech_blocks(self, trainable_top: int):
        """Freeze stem + all speech blocks except the top `trainable_top`."""
        if trainable_top > self.config.speech_blocks:
            raise ConfigError(f"cannot unfreeze {trainable_top} of "
                              f"{self.config.speech_blocks} speech blocks")
        first_trainable = self.config.speech_blocks - trainable_top
        for name, p in self.params.items():
            if not name.startswith("speech."):
                continue
            if name.startswith("speech.block"):
                idx = int(name.split(".")[1][len("block"):])
                p.requires_grad = idx >= first_trainable
            else:
                # stem and final norm follow the lowest block
                p.requires_grad = trainable_top >= self.config.speech_blocks
        self.zero_grad()

    def trainable_names(self) -> list[str]:
        return [n for n, p in self.params.items() if p.requires_grad]

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    # -- forward passes -------------------------------------------------

    def _block(self, p: dict[str, Tensor], x: Tensor, prefix: str, heads: int,
               keys: np.ndarray, layer: int, dropout_p: float,
               rows: np.ndarray | None = None) -> Tensor:
        """One pre-norm block. With rows, attention and attn.wo run on every
        row (their products' bits change with the row count) and only those
        rows go on from the attention dropout: the block's output rows.

        Without a graph ln1's output goes once q, k and v exist; nothing of
        the attention half (q, k, v, the attention output) nor ln2 is held
        through the MLP, whose hidden layer is the block's widest array; and
        GELU writes over that layer. stack_size charges what is left.
        With one, attention and GELU hold only their inputs and outputs:
        their backwards redo the probabilities, d*d and the tanh."""
        def lin(h, name, bias):
            return nm.linear(h, p[f"{prefix}.{name}"], p[f"{prefix}.{bias}"])

        h = nm.layer_norm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
        q, k, v = (lin(h, f"attn.w{c}", f"attn.b{c}") for c in "qkv")
        del h
        a = lin(nm.scaled_dot_attention(q, k, v, heads), "attn.wo", "attn.bo")
        if rows is not None:
            x, a = nm.embedding(x, rows), nm.embedding(a, rows)
        x = x + nm.dropout(a, dropout_p, nm.child_keys(keys, 2 * layer), rows)
        del q, k, v, a
        h = nm.layer_norm(x, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
        h = lin(h, "mlp.w1", "mlp.b1")
        h = lin(nm.gelu(h), "mlp.w2", "mlp.b2")
        h = nm.dropout(h, dropout_p, nm.child_keys(keys, 2 * layer + 1), rows)
        return x + h

    def speech_encode(self, m: MelSpectrogram) -> Tensor:
        """(mels, 2*speech_frames) log-mel -> (speech_frames, speech_dim), eval
        mode; a (B, mels, 2*speech_frames) stack gives (B, speech_frames,
        speech_dim), whose rows are bitwise those of B calls."""
        cfg = self.config
        if m.values.ndim not in (2, 3) or m.frames != cfg.mel_frames:
            raise ShapeError(f"expected {cfg.mel_frames} mel frames, got {m.values.shape}")
        if m.mels != cfg.mels:
            raise ShapeError(f"expected {cfg.mels} mel bins, got {m.mels}")
        p = self.params
        x = nm.tensor(np.swapaxes(m.values, -1, -2), dtype=self.dtype)  # (..., time, mels)
        x = nm.gelu(nm.conv1d(x, p["speech.conv1.w"], p["speech.conv1.b"],
                              stride=1, padding=1))
        x = nm.gelu(nm.conv1d(x, p["speech.conv2.w"], p["speech.conv2.b"],
                              stride=2, padding=1))
        x = x + self._sin_table
        for i in range(cfg.speech_blocks):
            x = self._block(p, x, f"speech.block{i}", cfg.speech_heads,
                            nm.NO_KEYS, i, cfg.dropout_p)
        return nm.layer_norm(x, p["speech.ln_post.g"], p["speech.ln_post.b"])

    def pooled_frames(self, mels: Iterable[MelSpectrogram]) -> Iterator[Tensor]:
        """Each log-mel's (prefix_len, speech_dim) mean-pooled encoder
        frames, read lazily from mels. A frozen encoder runs stacks of
        stack_size utterances; a trainable one runs each alone with a graph,
        so gradients sum as in single calls."""
        pf = self.config.pool_factor
        mels = iter(mels)
        if any(p.requires_grad for n, p in self.params.items() if n.startswith("speech.")):
            for m in mels:
                yield nm.mean_pool_time(self.speech_encode(m), pf)
            return
        per = stack_size(self.config, self.dtype)
        while chunk := [m.values for m in itertools.islice(mels, per)]:
            frames = self.speech_encode(MelSpectrogram(np.stack(chunk))).data
            pooled = [nm.mean_pool_time(Tensor(f), pf) for f in frames]
            del chunk, frames  # freed before the rows are handed out
            yield from pooled

    def pool_project(self, pooled: Tensor) -> Tensor:
        """Project mean-pooled speech frames to the (prefix_len, text_dim)
        prefix."""
        return nm.linear(pooled, self.params["proj.w"], self.params["proj.b"])

    def forward(self, tokens: np.ndarray, prefix: Tensor | None,
                keys: np.ndarray = nm.NO_KEYS, dropout_p: float | None = None,
                *, grad: bool = True, rows: np.ndarray | None = None) -> Tensor:
        """Token ids (prefix slots first) + optional speech prefix -> logits.

        tokens are one sample's (seq,) ids with a (prefix_len, text_dim)
        prefix, or B samples' (B, seq) ids with a (B, prefix_len, text_dim)
        prefix. (B*P, 2) uint64 Philox keys (see `RngStream.child_keys`) give
        P dropout passes per sample, rows b*P ... b*P+P-1 of (B*P, seq, 15)
        for sample b, one per key at any rate (at rate 0 each is the eval
        output). Sample b's embeddings, prefix and all before the first
        dropout run once for its passes, and its rows are bitwise a call on
        b alone with its keys. No keys is eval mode: (seq, 15) or (B, seq, 15).

        dropout_p overrides the config rate (used for MC-Dropout inference,
        where dropout stays active while layer norm is unaffected).

        grad=False builds no autodiff graph, for inference, where no
        backward follows: each intermediate is freed once used rather than
        held by the graph until the logits are, which for a stack of passes
        would keep every pass's activations alive at once.

        rows (ascending positions; one sample, grad=False only) gives just
        those rows, (P, len(rows), 15) or (len(rows), 15), bitwise the
        whole call's. The last block runs on them from its attention
        dropout on, and so does ln_f; the head's GEMM keeps the whole
        sequence's shape, the rest zeros. P * len(rows) < 2 would put the
        MLP on a one-row gemv, whose bits differ, so that case runs every
        row and selects after.
        """
        cfg = self.config
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim not in (1, 2) or 0 in tokens.shape[:-1]:
            raise ShapeError(f"tokens of shape {tokens.shape} are not (seq,) or (B, seq)")
        ids = tokens.reshape(-1, tokens.shape[-1])
        n, seq = ids.shape
        if seq < cfg.prefix_len or \
                not np.all(ids[:, :cfg.prefix_len] == Vocabulary.PREFIX):
            raise ShapeError(f"token rows must begin with {cfg.prefix_len} prefix ids")
        if seq > cfg.prefix_len + cfg.max_text_len:
            raise ShapeError(f"text length {seq - cfg.prefix_len} exceeds "
                             f"maximum {cfg.max_text_len}")
        want = tokens.shape[:-1] + (cfg.prefix_len, cfg.text_dim)
        if prefix is not None and prefix.shape != want:
            raise ShapeError(f"speech prefix shape {prefix.shape} != {want}")
        if rows is not None:
            if grad or tokens.ndim != 1:
                raise ConfigError("rows need one sample's tokens and grad=False")
            rows = np.asarray(rows, dtype=np.int64)
            if rows.ndim != 1 or np.any(np.diff(rows) <= 0) or \
                    len(rows) and not 0 <= rows[0] <= rows[-1] < seq:
                raise ShapeError(f"rows must ascend within [0, {seq})")
        p = self.params
        if not grad:
            p = {n: t.detach() for n, t in p.items() if n.startswith("text.")}
            prefix = None if prefix is None else prefix.detach()
        rate = cfg.dropout_p if dropout_p is None else dropout_p
        x = nm.embedding(p["text.char_emb"], ids) + \
            nm.embedding(p["text.pos_emb"], np.arange(seq))
        if prefix is not None:
            pad = nm.zeros(want[:-2] + (seq - cfg.prefix_len, cfg.text_dim), dtype=self.dtype)
            x = x + nm.concat([prefix, pad], axis=-2)
        x = x.reshape(n, 1, seq, cfg.text_dim)
        # the rows the last block's tail and ln_f run on; None runs every row
        sub = None if rows is None or len(rows) * max(1, len(keys)) < 2 else rows
        for i in range(cfg.text_layers):
            x = self._block(p, x, f"text.block{i}", cfg.text_heads,
                            nm.child_keys(keys, 200 + i), i, rate,
                            sub if i == cfg.text_layers - 1 else None)
        x = nm.layer_norm(x, p["text.ln_f.g"], p["text.ln_f.b"])
        if sub is not None:
            full = np.zeros(x.shape[:-2] + (seq, cfg.text_dim), x.dtype)
            full[..., sub, :] = x.data
            x = Tensor(full)
        x = nm.linear(x, p["text.head.w"], p["text.head.b"])
        if rows is not None:
            x = nm.embedding(x, rows)
        return x.reshape(*(keys.shape[:1] if len(keys) else tokens.shape[:-1]),
                         x.shape[-2], cfg.num_classes)

    def encode_text(self, raw: str) -> np.ndarray:
        """prefix_len prefix ids followed by one id per character of raw."""
        return np.asarray([Vocabulary.PREFIX] * self.config.prefix_len +
                          [self.vocab.id_of(c) for c in raw], dtype=np.int64)

    def letter_rows(self, raw: str) -> np.ndarray:
        """Rows of forward's logits (prefix slots first) that belong to
        raw's Arabic letters, in order."""
        return np.asarray(letter_indices(raw), dtype=np.int64) + self.config.prefix_len


def speech_embedding_dropout(prefix: Tensor, p: float, rng: RngStream) -> Tensor:
    """Zero the entire prefix with probability p (one draw per sample); no
    rescaling. Training only: eval uses the prefix as it is."""
    if p == 0.0:
        return prefix
    if rng.generator().random() < p:
        return prefix * 0.0
    return prefix
