"""Dense tensors with reverse-mode automatic differentiation.

Everything the model needs runs through the `Tensor` class (add, multiply,
matmul, reshape, transpose, sum, mean) and the primitives GELU, embedding
lookup, softmax, layer norm, dropout, attention and time pooling, each
with an analytic backward; the training losses are single ops too, on
`softmax_array`. Softmax, GELU and layer norm run a cache-sized block of
rows at a time; the softmax goes into a new array, or in place over
attention's scores, which nothing else reads. Attention without a graph
takes its (pass, head) score slices a bounded group at a time through one
reused buffer and writes AV straight into its output. Storage is
row-major float32 by default (float64 available for verification work).
Elementwise work runs in the storage dtype. Three reductions keep float64
accumulators and cast back: `sum`/`mean`, the softmax row sums and the
layer-norm moments. A stack times a weight matrix runs as one GEMM over its
folded rows (the same bits as per slice at the model's shapes; gradients
keep numpy's per-slice products), and `linear` adds its bias into the
product.

Randomness comes exclusively from `RngStream`, a thin wrapper over numpy's
counter-based Philox generator. The (seed, stream) pair fully determines
the draw sequence, and `child()` derives independent sub-streams via a
splitmix64 hash, so any op that consumes randomness is a pure function of
its inputs plus the stream. A stack of passes carries its streams as a
(P, 2) uint64 array of Philox keys, whose children `child_keys` derives at
once, bit for bit. `dropout` builds one Philox bit generator per call and
re-keys it for each key, which gives the same words as
`RngStream.generator()`; it compares them with p as integers. Without a
graph (MC inference) the keep-masks are memoized, packed to bits and keyed
by the whole key array, p and the row width, within MASK_MEMO_BYTES (sized
for the desk model):
Philox fills a mask row-major from counter 0, so a shorter sequence's mask
is the first rows of a longer one's, and a fixed seed redraws nothing.
Training, whose keys change every batch, never reads or writes the memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

_MASK64 = (1 << 64) - 1


def _splitmix64(z):
    """splitmix64 of an int, or of a uint64 array (which wraps by itself)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def child_keys(keys: np.ndarray, index) -> np.ndarray:
    """Row i is RngStream(*keys[i]).child(index).key, for (P, 2) uint64 keys
    and an int index or any ints broadcast against the rows."""
    step = np.array((np.asarray(index, dtype=object) + 1) & _MASK64, dtype=np.uint64)
    streams = _splitmix64(keys[:, 1] * 0x2545F4914F6CDD1D + step)
    out = np.empty((len(streams), 2), dtype=np.uint64)
    out[:, 0], out[:, 1] = keys[:, 0], streams
    return out


NO_KEYS = np.empty((0, 2), dtype=np.uint64)  # no passes: eval mode


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream: (seed, stream) -> fixed Philox sequence."""

    seed: int
    stream: int = 0

    def child(self, index: int) -> "RngStream":
        """Derive an independent sub-stream; same (self, index) -> same child."""
        mixed = _splitmix64((self.stream * 0x2545F4914F6CDD1D + index + 1) & _MASK64)
        return RngStream(self.seed, mixed)

    def child_keys(self, indices) -> np.ndarray:
        """(len(indices), 2) Philox keys of child(i) for each i of indices."""
        return child_keys(np.array([self.key], dtype=np.uint64), indices)

    @property
    def key(self) -> tuple[int, int]:
        """The Philox key of this stream's draws."""
        return self.seed & _MASK64, self.stream & _MASK64

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=np.array(self.key, dtype=np.uint64)))


class Tensor:
    """A dense float array plus optional gradient, node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=np.float32,
                 _parents=(), _backward=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(dtype)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad) or bool(_parents) and any(
            p.requires_grad for p in _parents)
        self._parents = tuple(p for p in _parents if p.requires_grad) if _parents else ()
        # every op hands its backward in here; this is the one place it is
        # dropped when nothing upstream needs a gradient
        self._backward = _backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        g = _unbroadcast(g, self.data.shape)
        if self.grad is None:
            # kept as handed over: no gradient is written in place, and each
            # later one replaces it with a new sum
            self.grad = np.asarray(g, dtype=self.data.dtype)
        else:
            self.grad = self.grad + g.astype(self.data.dtype, copy=False)

    def backward(self):
        """Reverse-mode sweep from a scalar output."""
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # spent: only leaves keep a gradient, so a later backward
                # through a shared interior node cannot add this one again
                node.grad = None

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other, self.dtype)
        return Tensor(self.data + other.data, _parents=(self, other),
                      _backward=_sum_backward(self, other))

    __radd__ = __add__

    def __mul__(self, other):
        other = _as_tensor(other, self.dtype)

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g * other.data)
            if other.requires_grad:
                other._accumulate(g * self.data)
        return Tensor(self.data * other.data, _parents=(self, other), _backward=bwd)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = _as_tensor(other, self.dtype)
        a, w = self.data, other.data
        if a.ndim > 2 and w.ndim == 2:  # one GEMM over the stack's rows, not one per slice
            lead = a.shape[:-1]
            out = (a.reshape(math.prod(lead), a.shape[-1]) @ w).reshape(*lead, w.shape[-1])
        else:
            out = a @ w

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g @ np.swapaxes(w, -1, -2))
            if other.requires_grad:
                other._accumulate(np.swapaxes(a, -1, -2) @ g)
        return Tensor(out, _parents=(self, other), _backward=bwd)

    # -- shape ----------------------------------------------------------

    def reshape(self, *shape):
        return Tensor(self.data.reshape(*shape), _parents=(self,),
                      _backward=lambda g: self._accumulate(g.reshape(self.data.shape)))

    def transpose(self, *axes):
        inv = sorted(range(len(axes)), key=axes.__getitem__)
        return Tensor(self.data.transpose(*axes), _parents=(self,),
                      _backward=lambda g: self._accumulate(g.transpose(*inv)))

    # -- reductions (float64 accumulation) ------------------------------

    def sum(self, axis=None, keepdims=False):
        y = np.sum(self.data, axis=axis, keepdims=keepdims, dtype=np.float64)

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))
        return Tensor(y.astype(self.dtype), _parents=(self,), _backward=bwd)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _sum_backward(*terms):
    def bwd(g):
        for t in terms:
            if t.requires_grad:
                t._accumulate(g)
    return bwd


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum out the axes numpy broadcasting added or stretched."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, extent in enumerate(shape):
        if extent == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def tensor(data, requires_grad=False, dtype=np.float32) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=requires_grad)


def zeros(shape, requires_grad=False, dtype=np.float32) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


# -- neural-net primitives ----------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU; deterministic, used by both encoders.

    The cube is d*d*d: float32 `d ** 3` goes through numpy's slow generic
    pow loop. Each step runs in place over one cache-sized block of rows at
    a time. Without a backward every step writes into the output; with one,
    d*d and the tanh keep arrays of their own for it.
    """
    d = x.data
    y = np.empty(d.shape, d.dtype)
    d2, t = (np.empty_like(y), np.empty_like(y)) if x.requires_grad else (y, y)
    for db, qb, tb, yb in _row_blocks(d, d2, t, y):
        np.multiply(db, db, out=qb)
        np.multiply(qb, db, out=tb)
        tb *= 0.044715
        tb += db
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        np.add(tb, 1.0, out=yb)
        yb *= db
        yb *= 0.5

    def bwd(g):
        # dy/dx = 0.5 * (1 + t + d * (1 - t^2) * c * (1 + 3 * 0.044715 * d^2))
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


ROW_BLOCK_BYTES = 1 << 20  # bytes of rows per block, so each pass finds it in cache
SHORT_ROW = 32  # rows this short take their max column by column


def _row_blocks(*arrays, itemsize: int | None = None):
    """The same rows of arrays of one leading shape, as (rows, last axis)
    views, ROW_BLOCK_BYTES of rows at a time; a row's bytes are the first
    array's last axis times itemsize (by default its own). Arrays written
    through them must be C-contiguous; a strided one is read from a copy."""
    rows = [a.reshape(-1, a.shape[-1]) for a in arrays]
    n = rows[0].shape[1]
    step = max(1, ROW_BLOCK_BYTES // (max(n, 1) * (itemsize or arrays[0].itemsize)))
    for i in range(0, len(rows[0]), step):
        yield [r[i:i + step] for r in rows]


def _softmax_rows(z: np.ndarray, p: np.ndarray):
    """Softmax over the last axis of z into p, a C-contiguous array of z's
    shape (z itself allowed); rejects non-finite input. Each block of rows
    is checked, shifted by its row max, exped and scaled by the reciprocal
    of its float64 row sums while it is in cache; a non-finite block raises
    after the blocks before it are written. Short rows, at least 8 per
    column, take the max as a running np.maximum over columns: cheaper
    there than np.max's per-row set-up, and exact like it."""
    n = z.shape[-1]
    for block, o in _row_blocks(z, p):
        if not np.all(np.isfinite(block)):
            raise NumericError("softmax input contains non-finite values")
        if 0 < n <= SHORT_ROW and len(block) >= 8 * n:
            top = block[:, 0].copy()
            for j in range(1, n):
                np.maximum(top, block[:, j], out=top)
            top = top[:, None]
        else:
            top = np.max(block, axis=-1, keepdims=True)
        np.subtract(block, top, out=o)
        np.exp(o, out=o)
        total = np.sum(o, axis=-1, keepdims=True, dtype=np.float64)
        o *= (1.0 / total).astype(o.dtype)


def softmax_array(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along `axis` into a new array; rejects
    non-finite input. Shift and exp run in the storage dtype; only the row
    sums accumulate in float64."""
    z = np.swapaxes(z, axis, -1)
    p = np.empty(z.shape, dtype=z.dtype)
    _softmax_rows(z, p)
    return np.swapaxes(p, axis, -1)


def softmax(x: Tensor, axis: int = -1, *, overwrite: bool = False) -> Tensor:
    """`softmax_array` of x as an autodiff op. With overwrite, the result is
    written into x.data, which must be C-contiguous with `axis` last; the
    backward reads only the result and the incoming gradient."""
    if not overwrite:
        p = softmax_array(x.data, axis)
    elif not x.data.flags.c_contiguous or axis not in (-1, x.data.ndim - 1):
        raise ShapeError("softmax overwrite needs a C-contiguous array and the last axis")
    else:
        p = x.data
        _softmax_rows(p, p)

    def bwd(g):
        dot = np.sum(g * p, axis=axis, keepdims=True)
        r = g - dot
        r *= p
        x._accumulate(r)
    return Tensor(p, _parents=(x,), _backward=bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis; identical in train and eval (no stochastic state)."""
    if x.data.shape[-1] == 0:
        raise ShapeError("layer_norm over a zero-length last axis")
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(f"gamma/beta must have shape ({d},)")
    # per block of rows: one float64 copy, centred in place; the moments
    # are add.reduce / d, the bits of np.mean and np.var without their
    # Python overhead. xhat and inv are whole arrays for the backward;
    # without one, the affine goes into xhat
    xhat = np.empty(x.data.shape, x.dtype)
    inv = np.empty(x.data.shape[:-1] + (1,), np.float64)
    y = xhat if not any(t.requires_grad for t in (x, gamma, beta)) else np.empty_like(xhat)
    for xb, hb, ib, yb in _row_blocks(x.data, xhat, inv, y, itemsize=8):
        c = xb.astype(np.float64)
        c -= np.add.reduce(c, axis=-1, keepdims=True) / d
        var = np.add.reduce(c * c, axis=-1, keepdims=True) / d
        np.divide(1.0, np.sqrt(var + 1e-5), out=ib)
        c *= ib
        hb[...] = c
        np.multiply(hb, gamma.data, out=yb)
        yb += beta.data

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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b, the same bits and gradients, with b added into x @ w."""
    y = x @ w
    y.data += b.data
    return Tensor(y.data, _parents=(y, b), _backward=_sum_backward(y, b))


def dropout(x: Tensor, p: float, keys: np.ndarray) -> Tensor:
    """Inverted dropout over a stack of passes, one per Philox key: zero
    with prob p, survivors scaled 1/(1-p).

    x is a (seq, dim) input that every pass shares or a (P, seq, dim) stack
    of P = len(keys) passes, for a (P, seq, dim) result; B samples' (B, 1 or
    P/B, seq, dim) give (B, P/B, seq, dim). Pass i's mask is drawn from
    keys[i], a (seed, stream) row of the (P, 2) uint64 keys, with the (seq,
    dim) shape; at p = 0 it is all ones. No keys is eval.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout p must be in [0, 1), got {p}")
    if not len(keys):
        return x
    grid = x.data.shape[:-3] + (len(keys) // math.prod(x.data.shape[:-3]),)
    if math.prod(grid) != len(keys) or x.data.shape[-3:-2] not in ((), (1,), grid[-1:]):
        raise ShapeError(f"{len(keys)} keys for a stack of {x.data.shape[:-2]}")
    shape = grid + x.data.shape[-2:]
    if p == 0.0:
        # a read-only view: the ones need no storage
        mask = np.broadcast_to(np.ones((), dtype=x.dtype), shape)
    else:
        mask = _dropout_masks(keys, p, (len(keys),) + shape[-2:], x.dtype,
                              memoize=not x.requires_grad).reshape(shape)
        if not x.requires_grad:
            # no backward reads the mask, so the product goes into its
            # storage (m * x and x * m are the same bits)
            return Tensor(np.multiply(mask, x.data, out=mask))
    return x * Tensor(mask)


# bytes of packed keep-masks that dropout without a graph keeps between
# calls; a full memo takes no new entries and evicts nothing. Sized for the
# desk model: the 4 x 50-pass recipe's masks of a sentence whose passes
# form one stack (at most 380 letters) take at most 2.5 MB. One full-width
# sentence's take about 40 MB and its stack size changes with its length,
# so there the memo is not meant to hold them.
MASK_MEMO_BYTES = 4 << 20


class _MaskMemo(dict):
    """(keys.tobytes(), p, dim) -> (P, seq, ceil(dim / 8)) packed keep
    bits, with nbytes the sum of the entries' sizes."""
    nbytes = 0


_mask_memo = _MaskMemo()


def _dropout_masks(keys: np.ndarray, p: float, shape: tuple, dtype,
                   memoize: bool) -> np.ndarray:
    """(P, seq, dim) masks of the storage dtype, row i from keys[i]:
    (draws >= p) * dtype(1/(1-p)), the same bits as the float64 divide
    ((draws >= p) / (1 - p)).astype(dtype).

    One Philox bit generator is re-keyed per key (counter 0, buffer empty),
    which gives the words of RngStream(*key).generator() without building a
    generator, and its seed sequence, per pass. A float64 draw is
    (u >> 11) * 2**-53 of a raw 64-bit word u, so draw >= p exactly when
    u >= ceil(p * 2**53) << 11: the raw words are compared with that.

    memoize (dropout without a graph) first looks the keep bits up in
    _mask_memo under (keys.tobytes(), p, dim). The words fill each (seq,
    dim) mask row-major from counter 0, so the mask of a shorter seq is the
    first rows of a longer one's: an entry of at least seq rows answers
    with no draw. A miss, or a longer seq, draws as above; the bits are
    packed along dim and stored, replacing a shorter entry, only if the
    memo's running byte count then stays within MASK_MEMO_BYTES, so a
    full memo costs a miss one lookup. The key is the whole array: one
    lookup per call, where one per key row would cost P lookups and
    survive a change of stack, so passes stacked differently
    (mc_forward's stack size changes with seq at full width) miss.
    """
    scale = np.dtype(dtype).type(1.0 / (1.0 - p))
    seq, dim = shape[1:]
    if memoize:
        memo_key = (keys.tobytes(), p, dim)
        packed = _mask_memo.get(memo_key)
        if packed is not None and packed.shape[1] >= seq:
            keep = np.unpackbits(packed[:, :seq], axis=-1, count=dim)
            return np.multiply(keep, scale, dtype=dtype)
    philox = {"counter": np.zeros(4, dtype=np.uint64)}
    state = {"bit_generator": "Philox", "state": philox,
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    bits = np.random.Philox()
    threshold = np.uint64(math.ceil(p * 2.0 ** 53) << 11)
    keep = np.empty(shape, dtype=bool)
    for key, kept in zip(keys, keep):
        philox["key"] = key
        bits.state = state
        np.greater_equal(bits.random_raw(shape[1:]), threshold, out=kept)
    if memoize:
        # bytes the entry adds, known before anything is packed
        grow = len(keys) * (seq - (0 if packed is None else packed.shape[1])) * ((dim + 7) // 8)
        if _mask_memo.nbytes + grow <= MASK_MEMO_BYTES:
            _mask_memo[memo_key] = np.packbits(keep, axis=-1)
            _mask_memo.nbytes += grow
    return np.multiply(keep, scale, dtype=dtype)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup along the second-to-last axis with scatter-add backward:
    a (..., rows, dim) table and ids of any shape give (..., *ids.shape,
    dim). Also serves as index_select, e.g. of letter rows from each pass."""
    ids = np.asarray(ids, dtype=np.int64)

    def bwd(g):
        acc = np.zeros_like(table.data)
        np.add.at(np.moveaxis(acc, -2, 0), ids, np.moveaxis(
            g, range(table.data.ndim - 2, g.ndim - 1), range(ids.ndim)))
        table._accumulate(acc)
    return Tensor(table.data[..., ids, :], _parents=(table,), _backward=bwd)


# score bytes of one group of (leading index, head) slices that attention
# without a graph normalises in one reused buffer
ATTENTION_GROUP_BYTES = 18 << 20

# bytes of the widest per-row arrays of one stacked forward, MC passes or
# frozen-encoder utterances. Every desk stack fits; a full-width text model
# on 662 tokens fits two passes, the full-width encoder one utterance.
STACK_BUDGET_BYTES = 64 << 20


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Bidirectional multi-head attention over (..., seq, dim) inputs; each
    leading index (a dropout pass) attends within its own sequence.

    Without a graph, groups of (leading index, head) slices of at most
    ATTENTION_GROUP_BYTES of scores (at least one slice) take turns in one
    buffer: QK^T into it, the softmax in place, AV straight into the
    (..., seq, heads, dh) output. numpy makes one GEMM call per slice
    either way, so the bits are those of the batched products."""
    *lead, s, d = q.data.shape
    if d % heads != 0:
        raise ConfigError(f"model dim {d} not divisible by {heads} heads")
    if k.data.shape != q.data.shape or v.data.shape != q.data.shape:
        raise ShapeError("q, k, v must share (..., seq, dim) shape")
    dh = d // heads
    # scaling q costs one (seq, dim) pass; scaling the scores would cost a
    # (heads, seq, seq) one
    q = q * (1.0 / math.sqrt(dh))
    if not any(t.requires_grad for t in (q, k, v)):
        return Tensor(_attention_groups(q.data, k.data, v.data, heads))
    n = len(lead)
    # (..., seq, heads, dh) <-> (..., heads, seq, dh)
    swap = (*range(n), n + 1, n, n + 2)

    def split(t):
        return t.reshape(*lead, s, heads, dh).transpose(*swap)

    qh, kh, vh = split(q), split(k), split(v)
    scores = qh @ kh.transpose(*range(n + 1), n + 2, n + 1)
    # the scores are a fresh product that only the softmax reads (the
    # matmul's backward reads its operands), so it writes over them
    attn = softmax(scores, axis=-1, overwrite=True)
    out = attn @ vh
    return out.transpose(*swap).reshape(*lead, s, d)


def _attention_groups(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int):
    """scaled_dot_attention's no-graph product of a scaled q, group by group."""
    s, d = q.shape[-2:]
    out = np.empty(q.shape, q.dtype)
    # (passes, heads, seq, dh) views; k as its (dh, seq) transposes
    qh, kt, vh, oh = (a.reshape(-1, s, heads, d // heads).transpose(0, 2, 1, 3)
                      for a in (q, k, v, out))
    kt = kt.swapaxes(-1, -2)
    per = max(1, ATTENTION_GROUP_BYTES // max(1, s * s * q.itemsize))
    hstep, lstep = min(heads, per), max(1, per // heads)
    buf = np.empty(min(lstep, len(qh)) * hstep * s * s, q.dtype)
    for i in range(0, len(qh), lstep):
        for h in range(0, heads, hstep):
            grp = np.s_[i:i + lstep, h:h + hstep]
            shape = qh[grp].shape[:2] + (s, s)
            scores = buf[:math.prod(shape)].reshape(shape)
            np.matmul(qh[grp], kt[grp], out=scores)
            softmax(Tensor(scores), overwrite=True)
            np.matmul(scores, vh[grp], out=oh[grp])
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    parts = list(tensors)

    def bwd(g):
        offset = 0
        for t in parts:
            extent = t.data.shape[axis]
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + extent)
            if t.requires_grad:
                t._accumulate(g[tuple(sl)])
            offset += extent
    return Tensor(np.concatenate([t.data for t in parts], axis=axis),
                  _parents=tuple(parts), _backward=bwd)


def mean_pool_time(x: Tensor, factor: int) -> Tensor:
    """Average consecutive groups of `factor` rows of a (frames, d) tensor."""
    frames, d = x.data.shape
    if frames % factor != 0:
        raise ShapeError(f"{frames} frames not divisible by pool factor {factor}")
    return x.reshape(frames // factor, factor, d).mean(axis=1)


def conv1d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 1) -> Tensor:
    """1-D convolution over (..., time, c_in) with weights (c_out, c_in, k);
    the im2col rows of every leading index run as one GEMM."""
    *lead, t_in, c_in = x.data.shape
    c_out, c_in_w, k = w.data.shape
    if c_in != c_in_w:
        raise ShapeError(f"conv1d channel mismatch: {c_in} vs {c_in_w}")
    xp = np.zeros((*lead, t_in + 2 * padding, c_in), dtype=x.data.dtype)
    xp[..., padding:padding + t_in, :] = x.data
    t_out = (t_in + 2 * padding - k) // stride + 1
    # im2col: t_out rows of k*c_in per leading index, row t the k padded
    # rows from t*stride on
    cols = np.lib.stride_tricks.as_strided(
        xp, (*lead, t_out, k * c_in),
        (*xp.strides[:-2], stride * xp.strides[-2], xp.strides[-1])).copy().reshape(-1, k * c_in)
    wmat = w.data.transpose(2, 1, 0).reshape(k * c_in, c_out)

    def bwd(g):
        g = g.reshape(-1, c_out)
        if w.requires_grad:
            gw = cols.T @ g  # (k*c_in, c_out)
            w._accumulate(gw.reshape(k, c_in, c_out).transpose(2, 1, 0))
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))
        if not x.requires_grad:
            return
        gcols = (g @ wmat.T).reshape(*lead, t_out, k, c_in)
        gxp = np.zeros_like(xp)
        # scatter-add along the time axis: index it first, as in embedding
        np.add.at(np.moveaxis(gxp, -2, 0), np.arange(t_out)[:, None] * stride + np.arange(k),
                  np.moveaxis(gcols, (-3, -2), (0, 1)))
        x._accumulate(gxp[..., padding:padding + t_in, :])
    out = cols @ wmat
    out += b.data
    return Tensor(out.reshape(*lead, t_out, c_out), _parents=(x, w, b), _backward=bwd)
