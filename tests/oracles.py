"""Reference implementations that tests compare the package against.

None is used by the package itself: `grad_check` measures reverse-mode
gradients against central finite differences, `keys_of` builds a key array
from each stream's own `key`, `dropout_masks_reference` draws dropout masks
the plain way, one fresh generator per stream, `brute_force_reference`
re-scores a (prediction, gold) pair without the scorer's helpers, finding
its words with a `str.isspace()` scan, and
`log_mel_reference`, `conv1d_reference` and `adamw_reference` are the
allocating, index-gather forms of `log_mel`, `conv1d` and `adamw_step`.
`prepare_sample_reference` prepares one training sample with its own
speech encode, as `prepare_sample` did before batches shared a stack.
`rdrop_objective_reference` is the R-Drop objective as one graph softmax
node of each pass pair (`softmax_node`) feeding a KL on its probabilities
and a focal loss given them, where each loss now normalises the pair's
logits itself. `transpose` is an axis permutation as a graph op.
`softmax_reference` and `attention_reference` normalise the whole score
array at once into a new array; `gelu_reference` and `layer_norm_reference`
are `gelu` and `layer_norm` over the whole array at once, each step a
whole-array temporary. `backward_reference` is the sweep that keeps its
graph: every node lives until the sweep ends, and only interior gradients
are cleared. `read_checkpoint_reference` reads a checkpoint
the whole-file way: the file into one buffer, its SHA-256 checked, then
every tensor copied out. `canonicalize` and `filterbank_centers`
are test helpers over the package's text and mel code, `ODD_SPACES` are
whitespace characters beyond ASCII for text strategies, and `stack_budget`
is the `nm.STACK_BUDGET_BYTES` at which `model.stack_size` gives a chosen
stack size, by the rule written out again.
"""

import hashlib
import math
import struct

import numpy as np

from multidiac.audiofe import (
    HOP, N_FFT, MelSpectrogram, _band_edges, inject_noise, log_mel,
    mel_filterbank, spec_augment,
)
from multidiac.errors import ConfigError, FormatError, NumericError
from multidiac.metrics import AlignmentError, MetricFlags, Tallies
from multidiac import numerics as nm
from multidiac.model import speech_embedding_dropout
from multidiac.numerics import _GELU_C, RngStream, Tensor, mean_pool_time
from multidiac.textproc import (
    ARABIC_LETTERS, DIACRITICS, NUM_CLASSES, class_of_marks, insert_diacritics,
    label_from_diacritized,
)
from multidiac.training import PreparedSample

# characters str.isspace() counts as whitespace beyond ASCII: a file
# separator, NEL, NBSP, the line separator and the ideographic space
ODD_SPACES = ["\x1c", "\x85", "\xa0", "\u2028", "\u3000"]


def grad_check(f, x: Tensor, h: float = 1e-4, max_coords: int | None = None,
               rng: RngStream | None = None) -> float:
    """Max relative error between reverse-mode grad of f and central differences.

    f must be a deterministic scalar-valued function of x. When max_coords is
    given, a deterministic random subset of coordinates is probed. Denominator
    is max(|analytic|, |numeric|, 1e-8).
    """
    if not (1e-4 <= h <= 1e-2):
        raise ConfigError(f"grad_check step h={h} outside [1e-4, 1e-2]")
    x.grad = None
    y = f(x)
    if not np.isfinite(y.data).all():
        raise NumericError("grad_check: f(x) is non-finite")
    y.backward()
    analytic = np.array(x.grad, dtype=np.float64)

    flat = x.data.reshape(-1)
    n = flat.size
    if max_coords is not None and max_coords < n:
        gen = (rng or RngStream(0)).generator()
        coords = gen.choice(n, size=max_coords, replace=False)
    else:
        coords = np.arange(n)

    worst = 0.0
    for i in coords:
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(f(x).data)
        flat[i] = orig - h
        f_minus = float(f(x).data)
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = analytic.reshape(-1)[i]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def keys_of(streams) -> np.ndarray:
    """(len(streams), 2) uint64 Philox keys, row i streams[i].key: the key
    array `dropout` and `DiacritizerModel.forward` take."""
    return np.array([s.key for s in streams], dtype=np.uint64).reshape(-1, 2)


def dropout_masks_reference(streams, p: float, shape: tuple, dtype) -> np.ndarray:
    """(len(streams), *shape) inverted-dropout masks: row i from a fresh
    Generator(Philox([seed, stream])) of streams[i], as float64 draws
    compared with p, divided by 1 - p in float64 and cast to dtype."""
    mask64 = (1 << 64) - 1
    draws = np.empty((len(streams),) + tuple(shape))
    for s, out in zip(streams, draws):
        key = np.array([s.seed & mask64, s.stream & mask64], dtype=np.uint64)
        np.random.Generator(np.random.Philox(key=key)).random(out=out)
    return ((draws >= p) / (1.0 - p)).astype(dtype)


def brute_force_reference(pred: str, gold: str,
                          flags: MetricFlags = MetricFlags()) -> Tallies:
    """Deliberately naive re-implementation used as a test oracle: walks
    both strings character by character, no shared helpers beyond the mark
    tables."""
    def parse(text):
        letters = []  # (raw_offset_of_letter, class_id)
        raw = []
        i = 0
        while i < len(text):
            c = text[i]
            if c in ARABIC_LETTERS:
                marks = ""
                j = i + 1
                while j < len(text) and text[j] in DIACRITICS:
                    marks += text[j]
                    j += 1
                letters.append((len(raw), class_of_marks(marks)))
                raw.append(c)
                i = j
            else:
                raw.append(c)
                i += 1
        return "".join(raw), letters

    raw_p, letters_p = parse(pred)
    raw_g, letters_g = parse(gold)
    if raw_p != raw_g:
        first = next((i for i, (a, b) in enumerate(zip(raw_p, raw_g)) if a != b),
                     min(len(raw_p), len(raw_g)))
        raise AlignmentError(f"base text mismatch at offset {first}")

    # word spans over raw, whitespace-delimited with >=1 Arabic letter
    spans = []
    start = None
    for i, c in enumerate(raw_g + " "):
        if c.isspace():
            if start is not None:
                span = (start, i)
                if any(raw_g[k] in ARABIC_LETTERS for k in range(*span)):
                    spans.append(span)
                start = None
        elif start is None:
            start = i

    t = Tallies(sentences=1, words=len(spans))
    any_word_err = 0
    for span in spans:
        word_has_err = False
        letters_in_span = [(off, gc) for off, gc in letters_g
                           if span[0] <= off < span[1]]
        last_off = letters_in_span[-1][0] if letters_in_span else None
        for (off, gc), (_, pc) in zip(letters_g, letters_p):
            if not (span[0] <= off < span[1]):
                continue
            if not flags.include_case_endings and off == last_off:
                continue
            if not flags.include_no_diacritic and gc == 0:
                continue
            t.positions += 1
            if pc != gc:
                t.position_errors += 1
                word_has_err = True
        if word_has_err:
            any_word_err += 1
    t.word_errors = any_word_err
    t.sentence_errors = 1 if any_word_err else 0
    return t


def log_mel_reference(w, mels: int = 80, frame_budget: int | None = None) -> MelSpectrogram:
    """log_mel with its frames gathered by a (frames, N_FFT) index array and
    each step allocating its result."""
    n = len(w)
    frames = max(1, math.ceil(n / HOP))
    padded = np.zeros((frames - 1) * HOP + N_FFT, dtype=np.float64)
    padded[:n] = w
    idx = np.arange(frames)[:, None] * HOP + np.arange(N_FFT)[None, :]
    window = np.hanning(N_FFT + 1)[:-1]
    spec = np.fft.rfft(padded[idx] * window, axis=1)
    power = np.abs(spec) ** 2
    mel_power = power @ mel_filterbank(mels).T
    log_spec = np.log10(np.maximum(mel_power, 1e-10))
    log_spec = np.maximum(log_spec, log_spec.max() - 8.0)
    values = ((log_spec + 4.0) / 4.0).T.astype(np.float32)
    if frame_budget is not None:
        if frames > frame_budget:
            values = values[:, :frame_budget]
        elif frames < frame_budget:
            fill = np.full((mels, frame_budget - frames), values.min(),
                           dtype=np.float32)
            values = np.concatenate([values, fill], axis=1)
    return MelSpectrogram(values=values)


def conv1d_reference(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int,
                     padding: int) -> np.ndarray:
    """conv1d's forward with the im2col rows gathered by an index array from
    an np.pad copy."""
    t_in, c_in = x.shape
    c_out, _, k = w.shape
    xp = np.pad(x, ((padding, padding), (0, 0)))
    t_out = (t_in + 2 * padding - k) // stride + 1
    idx = np.arange(t_out)[:, None] * stride + np.arange(k)[None, :]
    cols = xp[idx].reshape(t_out, k * c_in)
    return cols @ w.transpose(2, 1, 0).reshape(k * c_in, c_out) + b


def prepare_sample_reference(model, sample, cfg, rng: RngStream) -> PreparedSample:
    """One sample's noise, log-mel, SpecAugment and speech prefix, drawn
    from rng, with the encoder run on that utterance alone."""
    prefix = None
    if sample.waveform is not None:
        w = inject_noise(sample.waveform, cfg.snr_range, rng.child(0))
        mel = log_mel(w, mels=model.config.mels, frame_budget=model.config.mel_frames)
        mel = spec_augment(mel, cfg.specaug_freq, cfg.specaug_time, rng.child(1))
        prefix = model.pool_project(
            mean_pool_time(model.speech_encode(mel), model.config.pool_factor))
    return PreparedSample(tokens=model.encode_text(sample.raw),
                          letter_rows=model.letter_rows(sample.raw),
                          targets=np.asarray(sample.targets, dtype=np.int64),
                          prefix=prefix)


def adamw_reference(params, state, lr: float, weight_decay: float):
    """adamw_step with a fresh array for every intermediate and m and v
    replaced rather than updated; state is {"m": {}, "v": {}, "step": 0}."""
    state["step"] += 1
    t = state["step"]
    b1, b2, eps = 0.9, 0.999, 1e-8
    for name, p in params.items():
        if not p.requires_grad or p.grad is None:
            continue
        g = p.grad.astype(np.float64)
        m = state["m"].get(name, np.zeros_like(g))
        v = state["v"].get(name, np.zeros_like(g))
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        state["m"][name], state["v"][name] = m, v
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        new = p.data.astype(np.float64) - lr * mhat / (np.sqrt(vhat) + eps)
        new -= lr * weight_decay * new
        p.data = new.astype(p.data.dtype)


def canonicalize(text: str) -> str:
    """Re-emit diacritized text with marks in canonical shadda-first order."""
    labeled = label_from_diacritized(text)
    return insert_diacritics(labeled.raw, labeled.labels)


def filterbank_centers(mels: int) -> np.ndarray:
    """Center frequency (Hz) of each mel filter."""
    return _band_edges(mels)[1:-1]


def stack_budget(config, items: int, seq: int | None = None) -> int:
    """The float32 stack budget that fits `items` MC passes of seq tokens,
    or `items` frozen-encoder utterances when seq is None, and no more: one
    attention group, then (mlp_ratio + 4) (rows, dim) arrays per item,
    twice over for an utterance."""
    rows, dim, charge = (config.speech_frames, config.speech_dim, 2) if seq is None \
        else (seq, config.text_dim, 1)
    return nm.ATTENTION_GROUP_BYTES + items * charge * (config.mlp_ratio + 4) * rows * dim * 4


def softmax_reference(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along axis over the whole array: one finiteness pass, np.max,
    the shift into a new array, exp, float64 row sums and the scale by
    their reciprocal cast to the storage dtype."""
    if not np.all(np.isfinite(z)):
        raise NumericError("softmax input contains non-finite values")
    p = z - np.max(z, axis=axis, keepdims=True)
    np.exp(p, out=p)
    total = np.sum(p, axis=axis, keepdims=True, dtype=np.float64)
    p *= (1.0 / total).astype(p.dtype)
    return p


def attention_reference(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """scaled_dot_attention with its scores kept and normalised by
    softmax_reference into a second array; the same products and
    backward."""
    *lead, s, d = q.data.shape
    dh = d // heads
    n = len(lead)
    swap = (*range(n), n + 1, n, n + 2)

    def split(t):
        return transpose(t.reshape(*lead, s, heads, dh), *swap)

    qh, kh, vh = split(q * (1.0 / math.sqrt(dh))), split(k), split(v)
    scores = qh @ transpose(kh, *range(n + 1), n + 2, n + 1)
    p = softmax_reference(scores.data)

    def bwd(g):
        r = g - np.sum(g * p, axis=-1, keepdims=True)
        r *= p
        scores._accumulate(r)
    attn = Tensor(p, _parents=(scores,), _backward=bwd)
    return transpose(attn @ vh, *swap).reshape(*lead, s, d)


def transpose(x: Tensor, *axes) -> Tensor:
    """x.data.transpose(*axes) as a graph op; the backward applies the
    inverse permutation."""
    inv = sorted(range(len(axes)), key=axes.__getitem__)
    return Tensor(x.data.transpose(*axes), _parents=(x,),
                  _backward=lambda g: x._accumulate(g.transpose(*inv)))


def softmax_node(x: Tensor) -> Tensor:
    """nm.softmax of x as a graph op of its own, whose backward applies the
    jacobian to the gradient that reaches its output."""
    p = nm.softmax(x.data)

    def bwd(g):
        dot = np.sum(g * p, axis=-1, keepdims=True)
        r = g - dot
        r *= p
        x._accumulate(r)
    return Tensor(p, _parents=(x,), _backward=bwd)


def sym_kl_of_probs(pair: Tensor) -> Tensor:
    """training.sym_kl on the (2, ..., 15) stack of the pair's
    probabilities, its gradient left at them."""
    pc = np.maximum(pair.data, 1e-12)
    log_ratio = np.log(pc) - np.log(pc[::-1])
    kl = np.sum(pc * log_ratio, axis=-1, dtype=np.float64).astype(pair.dtype)
    n = kl[0].size

    def bwd(g):
        pair._accumulate((log_ratio + 1.0 - pc[::-1] / pc) * (pair.data >= 1e-12)
                         * (g * 0.5 / n))
    total = np.sum((kl[0] + kl[1]) * 0.5, dtype=np.float64).astype(pair.dtype)
    return Tensor(total * (1.0 / n), _parents=(pair,), _backward=bwd)


def focal_of_probs(logits: Tensor, p: np.ndarray, targets, gamma: float,
                   epsilon: float) -> Tensor:
    """training.focal_loss_ls given p, the softmax of logits computed
    elsewhere; the jacobian applied as (dp - sum(dp * p)) * p."""
    n, rows = len(targets), math.prod(logits.shape[:-2])
    q = np.full((n, NUM_CLASSES), epsilon / NUM_CLASSES, dtype=np.float64)
    q[np.arange(n), targets] += 1.0 - epsilon
    u = 1.0 - p
    pc, uc = np.maximum(p, 1e-12), np.maximum(u, 1e-12)
    logp = np.log(pc)
    w = q.astype(logits.dtype) * uc ** gamma
    per_pos = np.sum(w * -logp, axis=-1, dtype=np.float64).astype(logits.dtype)
    means = np.sum(per_pos, axis=-1, dtype=np.float64).astype(per_pos.dtype) * (1.0 / n)

    def bwd(g):
        dp = gamma * w / uc * logp * (u >= 1e-12) - w / pc * (p >= 1e-12)
        dp *= g / (rows * n)
        logits._accumulate((dp - np.sum(dp * p, axis=-1, keepdims=True)) * p)
    return Tensor(np.sum(means) * (1.0 / rows), _parents=(logits,), _backward=bwd)


def rdrop_objective_reference(samples, model, cfg, rng: RngStream) -> Tensor:
    """training.rdrop_objective with one softmax_node per sample's pass
    pair, whose probabilities the focal loss reads and the KL term takes:
    the same buckets, keys and gathers."""
    buckets = {}
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
        flat, seq = logits.reshape(-1, NUM_CLASSES), tokens.shape[1]
        for b, si in enumerate(members):
            s = samples[si]
            rows = nm.embedding(flat, s.letter_rows + [[2 * b * seq], [(2 * b + 1) * seq]])
            pair = softmax_node(rows)
            obj = focal_of_probs(rows, pair.data, s.targets, cfg.focal_gamma,
                                 cfg.label_smoothing)
            if cfg.rdrop_alpha != 0.0:
                obj = obj + cfg.rdrop_alpha * sym_kl_of_probs(pair)
            losses[si] = obj
    return sum(losses[1:], losses[0]) * (1.0 / len(losses))


def gelu_reference(x: Tensor) -> Tensor:
    """gelu over the whole array: d*d kept, the cube, scale, shift, tanh
    and the output each a whole-array step; the same backward."""
    d = x.data
    d2 = d * d
    t = d2 * d
    t *= 0.044715
    t += d
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= d
    y *= 0.5

    def bwd(g):
        s = t * t
        np.subtract(1.0, s, out=s)
        s *= d
        k = d2 * (3 * 0.044715)
        k += 1.0
        k *= _GELU_C
        s *= k
        s += t
        s += 1.0
        s *= 0.5
        s *= g
        x._accumulate(s)
    return Tensor(y, _parents=(x,), _backward=bwd)


def backward_reference(root: Tensor):
    """Tensor.backward's post-order sweep with the graph kept: each interior
    node's gradient is cleared once its backward has run, and nothing else."""
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


def layer_norm_reference(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """layer_norm over the whole array: one float64 copy centred in place,
    moments as add.reduce / d, the affine into a new array; the same
    backward."""
    d = x.data.shape[-1]
    c = x.data.astype(np.float64)
    c -= np.add.reduce(c, axis=-1, keepdims=True) / d
    var = np.add.reduce(c * c, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    c *= inv
    xhat = c.astype(x.dtype, copy=False)
    y = xhat * gamma.data
    y += beta.data

    def bwd(g):
        if x.requires_grad:
            gg = g * gamma.data
            m1 = np.mean(gg, axis=-1, keepdims=True)
            m2 = np.mean(gg * xhat, axis=-1, keepdims=True)
            x._accumulate(((gg - m1 - xhat * m2) * inv).astype(x.dtype))
        axes = tuple(range(g.ndim - 1))
        if gamma.requires_grad:
            gamma._accumulate(np.sum(g * xhat, axis=axes))
        if beta.requires_grad:
            beta._accumulate(np.sum(g, axis=axes))
    return Tensor(y, _parents=(x, gamma, beta), _backward=bwd)


def read_checkpoint_reference(path):
    """`read_checkpoint` the whole-file way: the file is read into one
    buffer and its trailer checked before the body is parsed, and each
    tensor is copied out of it."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 12 or blob[:4] != b"CWDK":
        raise FormatError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != 2:
        raise FormatError(f"{path}: unsupported format version {version}")
    if len(blob) < 12 + 32:
        raise FormatError(f"{path}: not a checkpoint file")
    body = memoryview(blob)[:-32]
    if hashlib.sha256(body).digest() != blob[-32:]:
        raise FormatError(f"{path}: trailer checksum mismatch (corrupt file)")
    (count,) = struct.unpack_from("<I", body, 8)
    pos = 12
    tensors, meta, seen = {}, {}, set()

    def take(n, what):
        nonlocal pos
        if n > len(body) - pos:
            raise FormatError(f"{path}: {what} runs past the end of the body")
        pos += n
        return body[pos - n:pos]

    try:
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4, "entry header"))
            name = str(take(name_len, "entry name"), "utf-8")
            (rank,) = struct.unpack("<I", take(4, "entry rank"))
            extents = struct.unpack(f"<{rank}Q", take(8 * rank, "entry extents"))
            if name in seen:
                raise FormatError(f"{path}: entry {name!r} appears twice")
            seen.add(name)
            if name == "__meta":
                if rank != 1:
                    raise FormatError(f"{path}: __meta entry has rank {rank}")
                text = str(take(extents[0], "__meta payload"), "utf-8")
                for line in filter(None, text.split("\n")):
                    k, _, v = line.partition("=")
                    if k in meta:
                        raise FormatError(f"{path}: metadata key {k!r} appears twice")
                    meta[k] = v
            else:
                payload = take(4 * math.prod(extents), f"tensor {name!r}")
                try:
                    tensors[name] = np.frombuffer(payload, dtype="<f4") \
                        .reshape(extents).copy()
                except ValueError:
                    raise FormatError(f"{path}: tensor {name!r} extents "
                                      f"{extents} are out of range") from None
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: entry is not valid UTF-8 ({e.reason})") from None
    if pos != len(body):
        raise FormatError(f"{path}: trailing bytes after last entry")
    return tensors, meta
