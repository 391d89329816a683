"""Losses, optimizer, schedule, freeze policy, checkpoint format, fit loop."""

import errno
import gc
import hashlib
import math
import os
import struct
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidiac import numerics as nm
from multidiac import training as tr
from multidiac.data import desk_synth_spec, synthesize_sample
from multidiac.errors import (ConfigError, FingerprintError, FormatError,
                              NumericError)
from multidiac.model import (DiacritizerModel, ModelConfig, desk_config,
                             full_scale_config, speech_embedding_dropout)
from multidiac.numerics import RngStream
from multidiac.textproc import NUM_CLASSES, Vocabulary, label_from_diacritized
from multidiac.training import (
    CorpusSample, OptimizerState, TrainConfig, adamw_step, apply_freeze_policy,
    config_fingerprint, deserialize_config, desk_recipe, fit, focal_loss_ls,
    load_checkpoint, lr_at, prepare_sample, rdrop_objective, read_checkpoint,
    save_checkpoint, serialize_config, sym_kl, table1_primary,
)
from oracles import (adamw_reference, attention_reference, backward_reference,
                     gelu_reference, grad_check, prepare_sample_reference,
                     rdrop_objective_reference, read_checkpoint_reference,
                     stack_budget)

VOCAB = Vocabulary("بتث")


def t64(a):
    return nm.tensor(np.asarray(a, dtype=np.float64), dtype=np.float64,
                     requires_grad=True)


def tiny_model(dropout=0.1, seed=0):
    cfg = desk_config(vocab_size=10)
    cfg = ModelConfig(**{**cfg.__dict__, "dropout_p": dropout})
    return DiacritizerModel(cfg, VOCAB, RngStream(seed))


def text_corpus(n=6):
    gen = np.random.default_rng(0)
    out = []
    for i in range(n):
        raw = "بت"
        out.append(CorpusSample(f"s{i}", raw,
                                gen.integers(0, NUM_CLASSES, size=2), None))
    return out


# -- focal loss ----------------------------------------------------------


def focal_oracle(logits, targets, gamma, eps):
    z = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
    n, k = logits.shape
    q = np.full((n, k), eps / k)
    q[np.arange(n), targets] += 1 - eps
    per = (q * (1 - p) ** gamma * (-np.log(p))).sum(axis=-1)
    return per.mean()


def test_focal_loss_matches_oracle():
    gen = np.random.default_rng(1)
    logits = gen.normal(0, 2, size=(7, NUM_CLASSES))
    targets = gen.integers(0, NUM_CLASSES, size=7)
    for gamma, eps in [(0.34, 0.018), (1.0, 0.108), (2.0, 0.0)]:
        got = focal_loss_ls(t64(logits), targets, gamma, eps).item()
        assert got == pytest.approx(focal_oracle(logits, targets, gamma, eps),
                                    abs=1e-6)


def test_focal_loss_reduces_to_cross_entropy():
    gen = np.random.default_rng(2)
    logits = gen.normal(0, 2, size=(5, NUM_CLASSES))
    targets = gen.integers(0, NUM_CLASSES, size=5)
    got = focal_loss_ls(t64(logits), targets, gamma=0.0, epsilon=0.0).item()
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    ce = -logp[np.arange(5), targets].mean()
    assert got == pytest.approx(ce, abs=1e-6)


def test_focal_loss_gradient():
    gen = np.random.default_rng(3)
    x = t64(gen.normal(0, 1, size=(4, NUM_CLASSES)))
    targets = gen.integers(0, NUM_CLASSES, size=4)
    err = grad_check(
        lambda t: focal_loss_ls(t, targets, 0.34, 0.018), x, h=1e-4)
    assert err < 1e-5


@pytest.mark.parametrize("gamma", [0.0, 0.34, 1.0, 2.0])
def test_focal_loss_gradient_on_saturated_rows(gamma):
    # rows 0 and 1 have one logit 40 above the rest, so p rounds to 1 there
    # and sits near 1e-17 elsewhere: row 0's target is below the p clamp,
    # row 1's is at 1 - p = 0, below the 1 - p clamp
    gen = np.random.default_rng(6)
    logits = gen.normal(0, 1, size=(4, NUM_CLASSES))
    logits[0, 3] += 40.0
    logits[1, 7] += 40.0
    targets = np.array([5, 7, 2, 11])
    x = t64(logits)
    err = grad_check(lambda t: focal_loss_ls(t, targets, gamma, 0.018), x, h=1e-4)
    assert np.all(np.isfinite(x.grad)) and err < 1e-5
    x32 = nm.tensor(logits, requires_grad=True)
    focal_loss_ls(x32, targets, gamma, 0.018).backward()
    assert np.all(np.isfinite(x32.grad))


def test_losses_build_one_graph_node(monkeypatch):
    made = []
    init = nm.Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    gen = np.random.default_rng(7)
    logits = t64(gen.normal(0, 1, size=(5, NUM_CLASSES)))
    pair = t64(gen.normal(0, 1, size=(2, 5, NUM_CLASSES)))
    monkeypatch.setattr(nm.Tensor, "__init__", recording_init)
    loss = focal_loss_ls(logits, gen.integers(0, NUM_CLASSES, size=5), 0.34, 0.018)
    assert made == [loss] and loss._parents == (logits,)
    made.clear()
    kl = sym_kl(pair)
    assert made == [kl] and kl._parents == (pair,)


def test_focal_loss_rejects_a_target_count_unlike_the_rows():
    # one target would broadcast over all five rows; two cannot broadcast
    logits = t64(np.zeros((5, NUM_CLASSES)))
    for targets in ([3], [3, 4]):
        with pytest.raises(nm.ShapeError, match="targets"):
            focal_loss_ls(logits, targets, 0.34, 0.018)


def softmax_jacobian(g, p):
    """The gradient at a softmax's logits, given g at its output p."""
    return (g - np.sum(g * p, axis=-1, keepdims=True)) * p


def sym_kl_two_operand(p, q):
    """(KL(p||q) + KL(q||p)) / 2 of two (positions, classes) arrays and its
    gradients for p and q, written per operand."""
    pc, qc = np.maximum(p, 1e-12), np.maximum(q, 1e-12)
    r = np.log(pc) - np.log(qc)
    kl_pq = np.sum(pc * r, axis=-1, dtype=np.float64).astype(p.dtype)
    kl_qp = np.sum(qc * -r, axis=-1, dtype=np.float64).astype(p.dtype)
    n = kl_pq.size
    total = np.sum((kl_pq + kl_qp) * 0.5, dtype=np.float64).astype(p.dtype)
    scale = p.dtype.type(1.0) * 0.5 / n
    return (total * (1.0 / n),
            (r + 1.0 - qc / pc) * (p >= 1e-12) * scale,
            (-r + 1.0 - pc / qc) * (q >= 1e-12) * scale)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_losses_on_a_pass_pair_are_the_per_pass_formulas(dtype):
    gen = np.random.default_rng(9)
    logits = gen.normal(0, 2, size=(2, 7, NUM_CLASSES)).astype(dtype)
    targets = gen.integers(0, NUM_CLASSES, size=7)
    # a saturated position in each pass, so the clamps bind
    logits[0, 1, targets[1]] += 40.0
    logits[1, 2, (targets[2] + 1) % NUM_CLASSES] += 40.0
    pair = nm.tensor(logits, dtype=dtype, requires_grad=True)
    loss = focal_loss_ls(pair, targets, 0.34, 0.018)
    loss.backward()
    rows = [nm.tensor(logits[k], dtype=dtype, requires_grad=True) for k in (0, 1)]
    ref = (focal_loss_ls(rows[0], targets, 0.34, 0.018)
           + focal_loss_ls(rows[1], targets, 0.34, 0.018)) * 0.5
    ref.backward()
    assert loss.dtype == dtype and loss.data.tobytes() == ref.data.tobytes()
    assert pair.grad.tobytes() == np.stack([r.grad for r in rows]).tobytes()

    pair = nm.tensor(logits, dtype=dtype, requires_grad=True)
    kl = sym_kl(pair)
    kl.backward()
    probs = nm.softmax(logits)
    value, grad_p, grad_q = sym_kl_two_operand(*probs)
    assert kl.dtype == dtype and kl.data.tobytes() == value.tobytes()
    assert pair.grad.tobytes() == softmax_jacobian(np.stack([grad_p, grad_q]), probs).tobytes()


def test_sym_kl_rejects_anything_but_a_pair():
    for shape in ((5, NUM_CLASSES), (3, 5, NUM_CLASSES)):
        with pytest.raises(nm.ShapeError, match="pair"):
            sym_kl(t64(np.full(shape, 1.0 / NUM_CLASSES)))


def test_focal_loss_rejects_bad_targets():
    logits = t64(np.zeros((2, NUM_CLASSES)))
    with pytest.raises(ConfigError):
        focal_loss_ls(logits, np.array([0, 15]), 0.5, 0.0)
    with pytest.raises(ConfigError):
        focal_loss_ls(logits, np.array([-1, 0]), 0.5, 0.0)


# -- symmetric KL --------------------------------------------------------


def test_sym_kl_oracle_and_identity():
    # logits log(a) and log(b), whose softmax is a and b
    gen = np.random.default_rng(4)
    a = gen.dirichlet(np.ones(NUM_CLASSES), size=6)
    b = gen.dirichlet(np.ones(NUM_CLASSES), size=6)
    la, lb = np.log(a), np.log(b)
    got = sym_kl(t64([la, lb])).item()
    kl = lambda p, q: (p * np.log(p / q)).sum(axis=-1)
    want = ((kl(a, b) + kl(b, a)) / 2).mean()
    assert got == pytest.approx(want, rel=1e-6)
    assert sym_kl(t64([la, la])).item() == pytest.approx(0.0, abs=1e-9)
    assert sym_kl(t64([la, lb])).item() == pytest.approx(
        sym_kl(t64([lb, la])).item(), abs=1e-9)


def test_sym_kl_gradient():
    gen = np.random.default_rng(5)
    a = gen.dirichlet(np.ones(6) * 20, size=3)  # bounded away from 0
    b = gen.dirichlet(np.ones(6) * 20, size=3)
    err = grad_check(sym_kl, t64([np.log(a), np.log(b)]), h=1e-4)
    # components near zero inflate the relative measure; 1e-3 is the
    # fidelity bar used throughout
    assert err < 1e-3


def test_sym_kl_passes_no_gradient_below_the_clamp():
    """Probabilities below the 1e-12 clamp get no gradient; at the logits,
    the softmax jacobian of that gradient is finite."""
    gen = np.random.default_rng(8)
    logits = np.log(gen.dirichlet(np.ones(NUM_CLASSES), size=(2, 4)))
    logits[0, 0, :3], logits[1, 1, 4:6] = -40.0, -80.0  # p below 1e-12
    for dtype in (np.float64, np.float32):
        pair = nm.tensor(logits, dtype=dtype, requires_grad=True)
        sym_kl(pair).backward()
        probs = nm.softmax(pair.data)
        _, grad_p, grad_q = sym_kl_two_operand(*probs)
        grads = np.stack([grad_p, grad_q])
        low = probs < 1e-12
        assert low[0].sum() >= 2 and low[1].sum() >= 2
        assert np.all(grads[low] == 0.0) and np.all(grads[~low] != 0.0)
        assert np.all(np.isfinite(pair.grad))
        assert pair.grad.tobytes() == softmax_jacobian(grads, probs).tobytes()


# -- R-Drop objective ----------------------------------------------------


def test_rdrop_without_dropout_is_plain_focal():
    model = tiny_model(dropout=0.0)
    cfg = tr.TrainConfig(rdrop_alpha=2.08, speech_emb_dropout=0.0)
    (sample,) = prepare_sample(model, text_corpus(1), cfg, [RngStream(0)])
    loss = rdrop_objective([sample], model, cfg, RngStream(1)).item()
    logits = model.forward(sample.tokens, None)
    rows = nm.embedding(logits, sample.letter_rows)
    plain = focal_loss_ls(rows, sample.targets, cfg.focal_gamma,
                          cfg.label_smoothing).item()
    # identical passes: KL term vanishes, mean of two equal losses
    assert abs(loss - plain) < 1e-7


def test_rdrop_alpha_zero_drops_consistency_term():
    model = tiny_model(dropout=0.1)
    base = tr.TrainConfig(rdrop_alpha=0.0)
    (s,) = prepare_sample(model, text_corpus(1), base, [RngStream(0)])
    l0 = rdrop_objective([s], model, base, RngStream(7)).item()
    l1 = rdrop_objective([s], model,
                         tr.TrainConfig(rdrop_alpha=2.0), RngStream(7)).item()
    assert l1 > l0  # alpha adds a nonnegative penalty with distinct masks


def test_rdrop_deterministic_in_rng():
    model = tiny_model()
    cfg = tr.TrainConfig()
    (s,) = prepare_sample(model, text_corpus(1), cfg, [RngStream(0)])
    a = rdrop_objective([s], model, cfg, RngStream(3)).item()
    b = rdrop_objective([s], model, cfg, RngStream(3)).item()
    assert a == b


def test_rdrop_loss_part_is_five_graph_nodes(monkeypatch):
    # letter gather, focal, KL, alpha scale, add: everything one
    # sample's objective builds on its rows of the bucket's forward, past
    # the one view of that forward's logits as (4 * seq, 15) rows that the
    # bucket's two samples share
    model = tiny_model()
    cfg = tr.TrainConfig()
    samples = prepare_sample(model, text_corpus(2), cfg, [RngStream(0)] * 2)
    outputs = []
    forward = model.forward

    def recording_forward(*args, **kwargs):
        outputs.append(forward(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(model, "forward", recording_forward)
    loss = rdrop_objective(samples, model, cfg, RngStream(1))
    # the mean over two samples scales their sum
    (total,) = loss._parents
    (logits,) = outputs

    def nodes_below(obj):
        nodes, stack = set(), [obj]
        while stack:
            t = stack.pop()
            if t is not logits and id(t) not in nodes:
                nodes.add(id(t))
                stack.extend(t._parents)
        return nodes

    first, second = map(nodes_below, total._parents)
    seq = len(samples[0].tokens)
    assert logits.shape == (4, seq, NUM_CLASSES)
    assert len(first - second) == len(second - first) == 5 and len(first & second) == 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rdrop_is_bitwise_the_softmax_node_composition(dtype):
    """Each loss normalises the pair's logits itself and applies the
    softmax jacobian in its own backward: the objective and every gradient's
    bytes and strides are those of one graph softmax node per pair, read by
    the focal loss and fed to a KL on probabilities."""
    runs = []
    for objective in (rdrop_objective, rdrop_objective_reference):
        # a sweep consumes the graph of the prefixes it reaches: one batch a run
        model, cfg, samples = mixed_batch(dtype)
        loss = objective(samples, model, cfg, RngStream(8))
        loss.backward()
        runs.append((loss.data.tobytes(), {n: (p.grad.tobytes(), p.grad.strides)
                                           for n, p in model.params.items()
                                           if p.grad is not None}))
    assert "proj.w" in runs[0][1] and runs[0] == runs[1]


def desk_audio_batch(n, dtype=np.float32):
    """A desk model, a recipe with speech-embedding dropout on, and n
    prepared samples with speech prefixes."""
    spec = desk_synth_spec(sample_count=n)
    corpus = []
    for i in range(n):
        gold, wav = synthesize_sample(spec, RngStream(3).child(i))
        lab = label_from_diacritized(gold)
        corpus.append(CorpusSample(f"s{i}", lab.raw, np.asarray(lab.labels), wav))
    vocab = Vocabulary.from_texts([s.raw for s in corpus])
    model = DiacritizerModel(desk_config(vocab_size=len(vocab) + 3), vocab,
                             RngStream(42), dtype=dtype)
    cfg = replace(desk_recipe(), speech_emb_dropout=0.5)
    samples = prepare_sample(model, corpus, cfg, [RngStream(0).child(i) for i in range(n)])
    return model, cfg, samples


def rdrop_per_pass(samples, model, cfg, rng):
    """The R-Drop objective as two stacks of one per sample."""
    losses = []
    for si, s in enumerate(samples):
        srng = rng.child(si)
        prefix = s.prefix
        if prefix is not None:
            prefix = speech_embedding_dropout(
                prefix, cfg.speech_emb_dropout, srng.child(0))
        seq = len(s.tokens)
        rows = [nm.embedding(model.forward(s.tokens, prefix, srng.child_keys([k]))
                             .reshape(seq, NUM_CLASSES), s.letter_rows)
                for k in (1, 2)]
        obj = (focal_loss_ls(rows[0], s.targets, cfg.focal_gamma, cfg.label_smoothing)
               + focal_loss_ls(rows[1], s.targets, cfg.focal_gamma,
                               cfg.label_smoothing)) * 0.5
        if cfg.rdrop_alpha != 0.0:
            pair = nm.concat([r.reshape(1, *r.shape) for r in rows])
            obj = obj + cfg.rdrop_alpha * sym_kl(pair)
        losses.append(obj)
    total = losses[0]
    for l in losses[1:]:
        total = total + l
    return total * (1.0 / len(losses))


def mixed_batch(dtype):
    """desk_audio_batch(3) interleaved with text-only samples of two token
    lengths: buckets of 3 audio samples, 2 full-length text-only ones and 1
    shorter one."""
    model, cfg, audio = desk_audio_batch(3, dtype=dtype)

    def text_only(s, cut):
        keep = s.letter_rows < len(s.tokens) - cut
        return tr.PreparedSample(s.tokens[:len(s.tokens) - cut], s.letter_rows[keep],
                                 s.targets[keep], None)

    samples = [audio[0], text_only(audio[1], 0), audio[1], text_only(audio[2], 3),
               text_only(audio[0], 0), audio[2]]
    return model, cfg, samples


def rdrop_runs(batch):
    """The objective and the parameter gradients of rdrop_objective and of
    rdrop_per_pass, each from a fresh batch(), so each objective's gradients
    accumulate from zero."""
    runs = []
    for objective in (rdrop_objective, rdrop_per_pass):
        model, cfg, samples = batch()
        loss = objective(samples, model, cfg, RngStream(5))
        loss.backward()
        runs.append((loss.item(), {n: p.grad for n, p in model.params.items()
                                   if p.grad is not None}))
    return runs


def test_rdrop_stacked_matches_two_forwards_float64():
    (value, grads), (ref_value, ref_grads) = rdrop_runs(
        lambda: mixed_batch(np.float64))
    assert value == ref_value
    assert grads.keys() == ref_grads.keys() and "proj.w" in grads
    top = max(np.abs(ref).max() for ref in ref_grads.values())
    for name, ref in ref_grads.items():
        # relative to the gradient's largest entry, as the stacked backward
        # sums the passes in another order; the key biases' gradient is
        # zero in exact arithmetic (softmax ignores a shift along the keys),
        # so theirs is rounding noise, measured against the largest gradient
        scale = top if name.endswith(".attn.bk") else np.abs(ref).max()
        err = np.abs(grads[name] - ref).max()
        assert err <= 1e-12 * scale, name


def test_rdrop_buckets_match_per_pass_forwards(monkeypatch):
    """A float32 batch of two token lengths, with and without audio, runs
    one forward per bucket, and its objective is bitwise the per-pass one."""
    forward_calls = []
    forward = DiacritizerModel.forward

    def counting_forward(self, tokens, *args, **kwargs):
        forward_calls.append(np.shape(tokens))
        return forward(self, tokens, *args, **kwargs)

    monkeypatch.setattr(DiacritizerModel, "forward", counting_forward)
    (value, _), (ref_value, _) = rdrop_runs(lambda: mixed_batch(np.float32))
    seq = forward_calls[0][1]
    assert forward_calls[:3] == [(3, seq), (2, seq), (1, seq - 3)]
    assert value == ref_value


def test_backward_skips_operands_without_grad(monkeypatch):
    made = []
    init = nm.Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(nm.Tensor, "__init__", recording_init)

    def forward():
        made.clear()
        model, cfg, samples = desk_audio_batch(4)
        return model, rdrop_objective(samples, model, cfg, RngStream(1))

    model, loss = forward()
    trainable = model.trainable_names()
    loss.backward()
    guarded = {n: model.params[n].grad for n in trainable}
    constants = [t for t in made if not t.requires_grad]
    # frozen speech weights, pooled frames, the prefix zero pad, dropout
    # masks, scalar constants
    assert len(constants) > 100
    assert all(t.grad is None for t in constants)

    # the unguarded result: the same graph, but every operand that needs no
    # gradient is flagged as needing one before the backward, so each branch
    # forms its product and accumulates it as before the guards
    model, loss = forward()
    constants = [t for t in made if not t.requires_grad]
    for t in constants:
        t.requires_grad = True
    loss.backward()
    # the 4 samples are one bucket: the mask of each of the desk model's 4
    # dropout calls (one tensor holds every pass) and the pad; per sample,
    # the pooled frames
    assert sum(t.grad is not None for t in constants) >= 4 + 1 + 4
    for name in trainable:
        assert guarded[name].tobytes() == model.params[name].grad.tobytes(), name


# -- AdamW ---------------------------------------------------------------


def test_adamw_matches_hand_computed_step():
    p = nm.tensor(np.array([1.0, -2.0]), dtype=np.float64, requires_grad=True)
    p.grad = np.array([0.5, -1.0])
    state = OptimizerState()
    lr, wd = 0.1, 0.01
    adamw_step({"w": p}, state, lr, wd)
    g = np.array([0.5, -1.0])
    m = 0.1 * g
    v = 0.001 * g * g
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.999)
    want = np.array([1.0, -2.0]) - lr * mhat / (np.sqrt(vhat) + 1e-8)
    want -= lr * wd * want
    assert np.allclose(p.data, want, atol=1e-12)
    assert state.step == 1


ADAMW_BLOCK = nm.ROW_BLOCK_BYTES // 32
# element counts about adamw_step's block; the last is a 2-D parameter
ADAMW_SIZES = {"one": (1,), "under": (ADAMW_BLOCK - 1,), "block": (ADAMW_BLOCK,),
               "over": (ADAMW_BLOCK + 1,), "three": (3 * ADAMW_BLOCK + 7,),
               "matrix": (257, 129)}


def _adamw_params(dtype, gen):
    """Parameters of ADAMW_SIZES plus a frozen one and one never given a
    gradient."""
    shapes = {**ADAMW_SIZES, "frozen": (6, 4), "none": (6, 4)}
    out = {n: nm.tensor(gen.normal(0, 1, size=s), dtype=dtype, requires_grad=True)
           for n, s in shapes.items()}
    out["frozen"].requires_grad = False
    return out


def _adamw_bytes(params, state):
    return ({n: p.data.tobytes() for n, p in params.items()},
            {n: a.tobytes() for n, a in state.m.items()},
            {n: a.tobytes() for n, a in state.v.items()}, state.step)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_in_place_is_bitwise_the_allocating_form(dtype):
    """Parameters of one element, a block and either side of it, several
    blocks and a part, and a matrix: values, m and v are the allocating
    form's bits over steps of a changing lr. A parameter without a gradient
    for one step keeps its array; a frozen one and one never given a
    gradient are left as they are."""
    gen = np.random.default_rng(5)
    ours = _adamw_params(dtype, gen)
    ref = {n: nm.tensor(p.data.copy(), dtype=dtype, requires_grad=p.requires_grad)
           for n, p in ours.items()}
    frozen, none = ours["frozen"].data.copy(), ours["none"].data.copy()
    state, ref_state = OptimizerState(), {"m": {}, "v": {}, "step": 0}
    for step in range(5):
        for name in (*ADAMW_SIZES, "frozen"):
            grad = None if (step, name) == (2, "three") else \
                gen.normal(0, 1, size=ours[name].shape).astype(dtype)
            ours[name].grad = grad
            ref[name].grad = None if grad is None else grad.copy()
        before = ours["three"].data
        adamw_step(ours, state, 0.01 * (step + 1), 0.1)
        adamw_reference(ref, ref_state, 0.01 * (step + 1), 0.1)
        assert (ours["three"].data is before) == (step == 2)
        for name in ADAMW_SIZES:
            assert ours[name].data.dtype == dtype
            assert ours[name].data.tobytes() == ref[name].data.tobytes(), (step, name)
            assert state.m[name].tobytes() == ref_state["m"][name].tobytes()
            assert state.v[name].tobytes() == ref_state["v"][name].tobytes()
    assert np.array_equal(ours["frozen"].data, frozen)
    assert np.array_equal(ours["none"].data, none)
    assert set(state.m) == set(ADAMW_SIZES) and state.step == 5


def test_adamw_refuses_a_non_finite_gradient_in_a_last_block_with_nothing_changed():
    """Once the moments exist, a non-finite gradient in the last, partial
    block of a parameter changes no value, moment or step."""
    gen = np.random.default_rng(33)
    ours = _adamw_params(np.float32, gen)
    state = OptimizerState()
    for name, shape in ADAMW_SIZES.items():
        ours[name].grad = gen.normal(0, 1, size=shape).astype(np.float32)
    adamw_step(ours, state, 0.01, 0.1)
    before = _adamw_bytes(ours, state)
    for name, shape in ADAMW_SIZES.items():
        ours[name].grad = gen.normal(0, 1, size=shape).astype(np.float32)
    ours["three"].grad[-1] = np.inf
    with pytest.raises(NumericError, match="three"):
        adamw_step(ours, state, 0.01, 0.1)
    assert _adamw_bytes(ours, state) == before


def test_adamw_step_temporaries_stay_under_2_mib_and_the_largest_parameter():
    """Once the moments exist, a step holds two scratch blocks and one new
    parameter array at a time: no float64 copy of a whole gradient (the
    whole-array step held two of them, 16 MiB for mlp.w1's shape)."""
    gen = np.random.default_rng(34)
    shapes = {"mlp.w1": (512, 2048), "attn.wq": (512, 512), "ln.g": (512,)}
    params = {n: nm.tensor(gen.normal(0, 1, size=s), requires_grad=True)
              for n, s in shapes.items()}
    state = OptimizerState()
    # traced from the first step on, so the second frees what it replaces
    tracemalloc.start()
    try:
        for step in range(2):
            for name, shape in shapes.items():
                params[name].grad = gen.normal(0, 1, size=shape).astype(np.float32)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            adamw_step(params, state, 0.01, 0.1)
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < (2 << 20) + max(p.data.nbytes for p in params.values())


def test_adamw_skips_frozen_and_gradless():
    a = nm.tensor(np.ones(2), requires_grad=False)
    a.grad = np.ones(2)
    b = nm.tensor(np.ones(2), requires_grad=True)  # no grad
    adamw_step({"a": a, "b": b}, OptimizerState(), 0.1, 0.0)
    assert np.array_equal(a.data, np.ones(2))
    assert np.array_equal(b.data, np.ones(2))


def test_adamw_aborts_on_nonfinite_before_mutation():
    good = nm.tensor(np.ones(2), dtype=np.float64, requires_grad=True)
    good.grad = np.ones(2)
    bad = nm.tensor(np.ones(2), dtype=np.float64, requires_grad=True)
    bad.grad = np.array([1.0, np.nan])
    state = OptimizerState()
    with pytest.raises(NumericError, match="bad"):
        adamw_step({"good": good, "bad": bad}, state, 0.1, 0.0)
    assert np.array_equal(good.data, np.ones(2))
    assert state.step == 0


def test_weight_decay_is_decoupled():
    # with zero gradient history but a forced zero grad, decay still shrinks
    p = nm.tensor(np.array([10.0]), dtype=np.float64, requires_grad=True)
    p.grad = np.array([0.0])
    adamw_step({"w": p}, OptimizerState(), lr=0.5, weight_decay=0.1)
    assert p.data[0] == pytest.approx(10.0 * (1 - 0.05), abs=1e-12)


# -- schedule ------------------------------------------------------------


def test_lr_schedule_endpoints_table1():
    cfg = table1_primary()
    total = 1000
    warmup = round(total * cfg.warmup_epochs / cfg.epochs)
    assert lr_at(0, total, cfg) == 0.0
    assert lr_at(warmup, total, cfg) == pytest.approx(4.1e-6, abs=1e-12)
    assert lr_at(total, total, cfg) == pytest.approx(4.1e-6 * 0.002, abs=1e-12)


def test_lr_schedule_shape():
    cfg = TrainConfig(learning_rate=1e-3, epochs=10, warmup_epochs=2)
    total = 100
    lrs = [lr_at(s, total, cfg) for s in range(total + 1)]
    warmup = 20
    assert all(lrs[i] < lrs[i + 1] for i in range(warmup))
    assert all(lrs[i] >= lrs[i + 1] for i in range(warmup, total))
    with pytest.raises(ConfigError):
        lr_at(total + 1, total, cfg)


MISTYPED_TRAIN_FIELDS = [
    ("warmup_epochs", -1), ("warmup_epochs", 1.5), ("warmup_epochs", True),
    ("specaug_freq", -3), ("specaug_time", 2.0), ("seed", 1.5), ("seed", "7"),
    ("snr_range", 5), ("snr_range", (10.0,)), ("snr_range", (30.0, 10.0)),
    ("snr_range", (10.0, math.inf)), ("snr_range", (math.nan, 10.0)),
    ("snr_range", ("10", 30.0)), ("snr_range", (False, 30.0)),
    ("speech_emb_dropout", 1.5), ("speech_emb_dropout", -0.1),
]


@pytest.mark.parametrize("field, value", MISTYPED_TRAIN_FIELDS,
                         ids=[f"{f}={v!r}" for f, v in MISTYPED_TRAIN_FIELDS])
def test_train_config_rejects_mistyped_fields(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


def test_train_config_accepts_integer_edges():
    cfg = TrainConfig(warmup_epochs=0, specaug_freq=0, specaug_time=0, seed=-1,
                      snr_range=(5, 5))
    assert cfg.snr_range == (5, 5)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=5, warmup_epochs=5)
    with pytest.raises(ConfigError):
        TrainConfig(rdrop_alpha=-1.0)


# -- freeze policy -------------------------------------------------------


def test_primary_policy_never_unfreezes():
    model = tiny_model()
    cfg = table1_primary()
    for epoch in (1, 20, 40):
        apply_freeze_policy(model, epoch, cfg)
        assert not any(n.startswith("speech.") for n in model.trainable_names())


def test_alt_policy_unfreezes_after_epoch():
    model = tiny_model()
    cfg = TrainConfig(whisper_unfrozen=1, unfreeze_at_epoch=15)
    apply_freeze_policy(model, 15, cfg)
    assert not any(n.startswith("speech.") for n in model.trainable_names())
    apply_freeze_policy(model, 16, cfg)
    names = model.trainable_names()
    assert any(n.startswith("speech.block1.") for n in names)
    assert not any(n.startswith("speech.block0.") for n in names)


def test_freeze_policy_rejects_too_many_blocks():
    model = tiny_model()
    with pytest.raises(ConfigError):
        apply_freeze_policy(model, 1, TrainConfig(whisper_unfrozen=99))


def test_freeze_policy_rejects_too_many_blocks_before_unfreeze_epoch(tmp_path):
    # fit checks the count before its first epoch, and writes nothing
    model = tiny_model()
    with pytest.raises(ConfigError, match="speech blocks"):
        fit(text_corpus(2), model, TrainConfig(whisper_unfrozen=99,
                                               unfreeze_at_epoch=15),
            out_dir=tmp_path / "o")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("raw", ["", "123 ?"])
def test_fit_refuses_a_sample_with_no_arabic_letter(tmp_path, raw):
    # its losses would divide by a letter count of 0; fit names the sample
    # before its first epoch, and writes nothing
    corpus = text_corpus(3)
    corpus[1] = CorpusSample("no-letters", raw, np.zeros(0, dtype=np.int64), None)
    with pytest.raises(ConfigError, match="'no-letters'.*no Arabic letter"):
        fit(corpus, tiny_model(), TrainConfig(epochs=2, warmup_epochs=1), out_dir=tmp_path / "o")
    assert not (tmp_path / "o").exists()


# -- config serialization ------------------------------------------------


def test_config_serialize_round_trip():
    m = desk_config(vocab_size=12)
    t = tr.alt_checkpoint4(seed=9)
    assert deserialize_config(ModelConfig, serialize_config(m)) == m
    assert deserialize_config(TrainConfig, serialize_config(t)) == t


def test_fingerprint_sensitive_to_any_field():
    m, t = desk_config(), table1_primary()
    base = config_fingerprint(m, t)
    assert len(base) == 16
    assert config_fingerprint(m, table1_primary(seed=43)) != base
    assert config_fingerprint(desk_config(vocab_size=41), t) != base
    assert config_fingerprint(m, t) == base


def test_config_encoding_is_pinned():
    # checkpoints store these strings and fingerprints: a change to either
    # would make every checkpoint written before it fail to verify
    assert serialize_config(desk_config()) == (
        "text_layers=2;text_dim=64;text_heads=2;speech_blocks=2;speech_dim=64;"
        "speech_heads=2;speech_frames=100;prefix_len=10;pool_factor=10;"
        "num_classes=15;dropout_p=0.1;mels=80;mlp_ratio=4;vocab_size=40;"
        "max_text_len=512")
    assert config_fingerprint(desk_config(), desk_recipe()) == "db7b127080020d9b"
    assert config_fingerprint(full_scale_config(), table1_primary()) == \
        "6a07f6a98b911174"


# -- checkpoint format ---------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = tiny_model(seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, {"epoch": 3, "note": "hello"})
    tensors, meta = read_checkpoint(path)
    assert meta["epoch"] == "3"
    assert meta["note"] == "hello"
    assert meta["vocab"] == VOCAB.chars
    assert set(tensors) == set(model.params)
    for n, p in model.params.items():
        assert np.array_equal(tensors[n], p.data.astype("<f4"))


@pytest.mark.parametrize("char", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                  "\x85", "\u2028", "\u2029"])
def test_checkpoint_vocabulary_round_trips_line_breaking_characters(tmp_path, char):
    # str.splitlines() breaks at each of these, but the metadata lines end in "\n"
    model = DiacritizerModel(desk_config(vocab_size=10), Vocabulary("بت" + char),
                             RngStream(0))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, _loadable_meta(model))
    assert load_checkpoint(path).vocab == model.vocab


def test_checkpoint_layout_oracle(tmp_path):
    model = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, {})
    blob = path.read_bytes()
    assert blob[:4] == b"CWDK"
    version, count = struct.unpack("<II", blob[4:12])
    assert version == 2
    assert count == len(model.params) + 1  # + __meta
    # first entry is the lexicographically smallest parameter name
    (nl,) = struct.unpack("<I", blob[12:16])
    assert blob[16:16 + nl].decode() == sorted(model.params)[0]
    # trailer: the SHA-256 digest of everything before it
    assert blob[-32:] == hashlib.sha256(blob[:-32]).digest()


def test_checkpoint_rejects_corrupt_trailer(tmp_path):
    model = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, {})
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="checksum"):
        read_checkpoint(bad)


def test_checkpoint_rejects_flipped_payload_byte(tmp_path):
    model = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, {})
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_checkpoint(bad)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "g.ckpt"
    p.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(FormatError):
        read_checkpoint(p)


def test_load_checkpoint_reconstructs_model(tmp_path):
    model = tiny_model(seed=11)
    tcfg = desk_recipe()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, {
        "fingerprint": config_fingerprint(model.config, tcfg),
        "model_cfg": serialize_config(model.config),
        "train_cfg": serialize_config(tcfg)})
    back = load_checkpoint(path)
    assert back.config == model.config
    for n in model.params:
        assert np.array_equal(back.params[n].data,
                              model.params[n].data.astype("<f4"))


def _loadable_meta(model, tcfg=None):
    tcfg = tcfg or desk_recipe()
    return {"fingerprint": config_fingerprint(model.config, tcfg),
            "model_cfg": serialize_config(model.config),
            "train_cfg": serialize_config(tcfg)}


def _sealed(entries) -> bytes:
    """A checkpoint file of (name, extents, payload) entries, written entry
    by entry here, not by save_checkpoint, with its SHA-256 trailer."""
    body = b"CWDK" + struct.pack("<II", 2, len(entries))
    for name, extents, payload in entries:
        body += struct.pack("<I", len(name.encode())) + name.encode()
        body += struct.pack("<I", len(extents))
        body += b"".join(struct.pack("<Q", e) for e in extents) + payload
    return body + hashlib.sha256(body).digest()


def _entries(model, meta) -> list:
    """The parameter entries of model, then a __meta entry holding meta."""
    meta_blob = "".join(f"{k}={v}\n" for k, v in meta.items()).encode()
    return [(n, p.data.shape, p.data.astype("<f4").tobytes())
            for n, p in sorted(model.params.items())] + \
        [("__meta", (len(meta_blob),), meta_blob)]


def test_checkpoint_refuses_format_version_1_before_hashing(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tiny_model(), {})
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(blob))

    class NoHashing:
        def sha256(self, *args):
            raise AssertionError("a digest was computed")

    monkeypatch.setattr(tr, "hashlib", NoHashing())
    with pytest.raises(FormatError, match="unsupported format version 1"):
        read_checkpoint(path)


def test_load_checkpoint_refuses_metadata_without_vocab(tmp_path):
    model = tiny_model(seed=13)
    path = tmp_path / "m.ckpt"
    path.write_bytes(_sealed(_entries(model, {**_loadable_meta(model), "vocab": ""})))
    assert load_checkpoint(path).vocab == Vocabulary("")  # present, if empty
    path.write_bytes(_sealed(_entries(model, _loadable_meta(model))))
    with pytest.raises(FormatError, match="metadata has no vocab entry"):
        load_checkpoint(path)
    assert load_checkpoint(path, vocab=VOCAB).vocab == VOCAB


@pytest.mark.parametrize("repeat", ["text.head.b", "__meta"])
def test_checkpoint_refuses_a_repeated_entry(tmp_path, repeat):
    model = tiny_model(seed=13)
    entries = _entries(model, {**_loadable_meta(model), "vocab": VOCAB.chars})
    path = tmp_path / "m.ckpt"
    path.write_bytes(_sealed(entries))
    assert load_checkpoint(path).vocab == VOCAB  # loads as written
    name, extents, payload = next(e for e in entries if e[0] == repeat)
    if name == "text.head.b":
        payload = np.full(extents, 7.0, dtype="<f4").tobytes()
    else:
        payload = f"vocab={VOCAB.chars}\n".encode()
        extents = (len(payload),)
    path.write_bytes(_sealed(entries + [(name, extents, payload)]))
    with pytest.raises(FormatError, match=f"entry {name!r} appears twice"):
        load_checkpoint(path)


def test_checkpoint_refuses_a_repeated_metadata_key(tmp_path):
    model = tiny_model(seed=13)
    entries = _entries(model, {**_loadable_meta(model), "vocab": VOCAB.chars})
    name, _, blob = entries[-1]
    # a second vocab= line used to win: a 3-id vocabulary, every letter UNK
    blob += b"vocab=\n"
    path = tmp_path / "m.ckpt"
    path.write_bytes(_sealed(entries[:-1] + [(name, (len(blob),), blob)]))
    with pytest.raises(FormatError, match="metadata key 'vocab' appears twice"):
        read_checkpoint(path)


class _FailingFile:
    """A file whose writes fail, as on a full disk, after the first few."""

    def __init__(self, f, ok_writes):
        self.f, self.ok_writes = f, ok_writes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def __getattr__(self, name):
        return getattr(self.f, name)

    def write(self, chunk):
        if self.ok_writes == 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.ok_writes -= 1
        return self.f.write(chunk)


@pytest.mark.parametrize("ok_writes", [0, 3, 40])
def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch, ok_writes):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tiny_model(seed=1), {"epoch": 1})
    before = path.read_bytes()
    monkeypatch.setattr(tr, "open", raising=False, value=lambda file, mode:
                        _FailingFile(open(file, mode), ok_writes))
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, tiny_model(seed=2), {"epoch": 2})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.ckpt"]
    # with no earlier file, a failed save leaves no file at all
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(tmp_path / "new.ckpt", tiny_model(seed=2), {})
    assert os.listdir(tmp_path) == ["m.ckpt"]


def _micro_body(tmp_path_factory) -> tuple[bytes, list[int]]:
    """The body (no trailer) of a valid checkpoint of a few kilobytes, and
    the offsets of its structural fields: the count, and every entry's
    name length, rank and extents."""
    cfg = ModelConfig(text_layers=1, text_dim=8, text_heads=1, speech_blocks=1,
                      speech_dim=8, speech_heads=1, speech_frames=20,
                      prefix_len=2, pool_factor=10, mels=8, mlp_ratio=1,
                      vocab_size=8, max_text_len=4)
    model = DiacritizerModel(cfg, Vocabulary("بت"), RngStream(0))
    path = tmp_path_factory.mktemp("fuzz") / "micro.ckpt"
    save_checkpoint(path, model, _loadable_meta(model))
    body = path.read_bytes()[:-32]
    offsets, pos = [8], 12
    while pos < len(body):
        (nl,) = struct.unpack_from("<I", body, pos)
        (rank,) = struct.unpack_from("<I", body, pos + 4 + nl)
        extents = struct.unpack_from(f"<{rank}Q", body, pos + 8 + nl)
        offsets += [pos, pos + 4 + nl] + [pos + 8 + nl + 8 * i for i in range(rank)]
        meta = body[pos + 4:pos + 4 + nl] == b"__meta"
        pos += 8 + nl + 8 * rank + (extents[0] if meta else 4 * math.prod(extents))
    return body, offsets


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_loads_or_raises_typed_error(tmp_path_factory, data):
    body, offsets = _micro_body(tmp_path_factory)
    body = bytearray(body)
    # field starts, field bytes, or anywhere
    where = st.one_of(st.sampled_from(offsets),
                      st.sampled_from(offsets).map(lambda o: o + 1),
                      st.sampled_from(offsets).map(lambda o: o + 3),
                      st.integers(0, len(body) - 1))
    for pos, value in data.draw(st.lists(st.tuples(where, st.integers(0, 255)),
                                         max_size=4)):
        body[pos] = value
    cut = data.draw(st.one_of(st.none(), st.integers(0, len(body))))
    if cut is not None:
        del body[cut:]
    path = tmp_path_factory.getbasetemp() / "mutated.ckpt"
    path.write_bytes(bytes(body) + hashlib.sha256(body).digest())
    try:
        model = load_checkpoint(path)
    except (FormatError, FingerprintError):
        return
    assert all(p.data.dtype == np.float32 for p in model.params.values())


def _outcome(read, path):
    """A read's tensors (dtype, shape, bytes) and metadata, or the type and
    message of the FormatError it raised."""
    try:
        tensors, meta = read(path)
    except FormatError as e:
        return type(e), str(e)
    return {n: (a.dtype.str, a.shape, a.tobytes()) for n, a in tensors.items()}, meta


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_read_checkpoint_accepts_and_refuses_what_a_whole_file_read_does(
        tmp_path_factory, data):
    body, offsets = _micro_body(tmp_path_factory)
    body = bytearray(body)
    where = st.one_of(st.sampled_from(offsets),
                      st.sampled_from(offsets).map(lambda o: o + 1),
                      st.integers(0, len(body) - 1))
    for pos, value in data.draw(st.lists(st.tuples(where, st.integers(0, 255)),
                                         max_size=3)):
        body[pos] = value
    cut = data.draw(st.one_of(st.none(), st.integers(0, len(body))))
    if cut is not None:
        del body[cut:]
    blob = bytes(body) + hashlib.sha256(body).digest()
    tail = data.draw(st.sampled_from(["sealed", "flipped", "appended", "cut"]))
    if tail == "flipped":
        blob = blob[:-1] + bytes([blob[-1] ^ 1])
    elif tail == "appended":
        blob += b"\0"
    elif tail == "cut":
        blob = blob[:-data.draw(st.integers(1, 32))]
    path = tmp_path_factory.getbasetemp() / "differential.ckpt"
    path.write_bytes(blob)
    assert _outcome(read_checkpoint, path) == _outcome(read_checkpoint_reference, path)


@pytest.mark.parametrize("cfg", [desk_config(), replace(desk_config(), text_dim=128,
                                                        speech_dim=128)],
                         ids=["desk", "desk-128"])
def test_read_checkpoint_reads_saved_models_as_a_whole_file_read_does(tmp_path, cfg):
    model = DiacritizerModel(cfg, VOCAB, RngStream(3))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, _loadable_meta(model))
    outcome = _outcome(read_checkpoint, path)
    assert outcome == _outcome(read_checkpoint_reference, path)
    assert set(outcome[0]) == set(model.params)


def _traced_peak(fn, *args) -> int:
    """tracemalloc's peak during fn(*args), over what is held before it."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_checkpoint_read_peaks_at_about_the_file_size(tmp_path):
    # a whole-file read held the file and a copy of every tensor: 2x
    cfg = replace(desk_config(), text_dim=128, speech_dim=128)
    model = DiacritizerModel(cfg, VOCAB, RngStream(3))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, _loadable_meta(model))
    size = path.stat().st_size
    assert size > 3_000_000
    assert _traced_peak(read_checkpoint, path) <= 1.25 * size
    assert _traced_peak(load_checkpoint, path) <= 1.25 * size


def test_a_tensor_declared_past_the_end_of_the_file_is_refused_unallocated(tmp_path):
    # (2**30,) fits int64 but declares 4 GiB in a file of a few bytes
    path = tmp_path / "m.ckpt"
    path.write_bytes(_sealed([("w", (2 ** 30,), b"\0" * 8)]))

    def refused():
        with pytest.raises(FormatError, match="tensor 'w' runs past the end of the body"):
            read_checkpoint(path)

    assert _traced_peak(refused) < 1 << 20


def test_zero_size_tensors_load_or_are_refused_as_before(tmp_path):
    path = tmp_path / "m.ckpt"
    entries = [("a", (0,), b""), ("b", (0, 5), b""), ("c", (3, 0, 2), b""),
               ("d", (2,), np.array([1.5, -2.0], "<f4").tobytes())]
    path.write_bytes(_sealed(entries))
    tensors, _ = read_checkpoint(path)
    assert {n: a.shape for n, a in tensors.items()} == \
        {"a": (0,), "b": (0, 5), "c": (3, 0, 2), "d": (2,)}
    assert all(a.dtype == np.dtype("<f4") for a in tensors.values())
    assert tensors["d"].tolist() == [1.5, -2.0]
    for extents in [(2 ** 63, 0), (0,) * 70, (3, 0, 2 ** 62)]:
        path.write_bytes(_sealed([("w", extents, b"")]))
        with pytest.raises(FormatError, match="out of range"):
            read_checkpoint(path)
        assert _outcome(read_checkpoint, path) == \
            _outcome(read_checkpoint_reference, path)


@pytest.mark.parametrize("damage", ["entry-header", "tensor", "trailer", "appended"])
def test_a_cut_or_extended_checkpoint_is_refused_as_corrupt(tmp_path, damage):
    model = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, {})
    blob = path.read_bytes()
    # (entry start, tensor start, tensor end) of each parameter, in file order
    spans, pos = [], 12
    for name in sorted(model.params):
        start = pos
        pos += 4 + len(name) + 4 + 8 * model.params[name].data.ndim
        spans.append((start, pos, pos + model.params[name].data.nbytes))
        pos = spans[-1][2]
    widest = max(spans, key=lambda s: s[2] - s[1])
    cut = {"entry-header": spans[len(spans) // 2][0] + 6,
           "tensor": (widest[1] + widest[2]) // 2,
           "trailer": len(blob) - 10, "appended": None}[damage]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob + b"\0" if cut is None else blob[:cut])
    with pytest.raises(FormatError, match="checksum"):
        read_checkpoint(bad)


def test_a_checkpoint_that_ends_early_while_being_read_is_refused(tmp_path, monkeypatch):
    # the size on disk says more than the reads find, as when a file shrinks
    # between the fstat and the reads
    model = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, {})
    blob = path.read_bytes()
    real_fstat = os.fstat
    monkeypatch.setattr(tr.os, "fstat", lambda fd: os.stat_result(
        (*real_fstat(fd)[:6], len(blob), *real_fstat(fd)[7:])))
    for cut in (14, 200, len(blob) // 2, len(blob) - 40):
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError, match="checksum"):
            read_checkpoint(path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_checkpoint_on_a_pipe_is_refused_as_not_a_regular_file(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tiny_model(), {})
    r, w = os.pipe()
    try:
        os.write(w, path.read_bytes()[:4096])
        os.close(w)
        with pytest.raises(FormatError, match="not a regular file"):
            read_checkpoint(f"/dev/fd/{r}")
    finally:
        os.close(r)


@pytest.mark.parametrize("meta", [
    {"note": "x\ny=z"}, {"a=b": "c"}, {"note": "x\nvocab="}, {"k\nj": "v"},
    {"vocab": "ab\n"}, {"epoch": 3, "=": ""}, {1: "a", "1": "b"},
    {"note": "\ud800"}, {"\udcff": "x"},
], ids=["newline-value", "equals-key", "repeats-vocab", "newline-key",
        "newline-vocab", "bare-equals-key", "same-text-keys",
        "surrogate-value", "surrogate-key"])
def test_save_checkpoint_refuses_metadata_it_cannot_read_back(tmp_path, monkeypatch, meta):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tiny_model(seed=1), {"epoch": 1})
    before = path.read_bytes()

    def no_open(*args):
        raise AssertionError("a file was opened")

    monkeypatch.setattr(tr, "open", no_open, raising=False)
    with pytest.raises(ConfigError, match="metadata"):
        save_checkpoint(path, tiny_model(seed=2), meta)
    with pytest.raises(ConfigError, match="metadata"):
        save_checkpoint(tmp_path / "new.ckpt", tiny_model(seed=2), meta)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.ckpt"]


@settings(max_examples=200, deadline=None)
@given(meta=st.dictionaries(st.text(max_size=6), st.text(max_size=12), max_size=4))
def test_accepted_checkpoint_metadata_reads_back_equal(tmp_path_factory, meta):
    path = tmp_path_factory.getbasetemp() / "meta.ckpt"
    storable = all("=" not in k and "\n" not in k + v for k, v in meta.items())
    if not storable:
        with pytest.raises(ConfigError):
            save_checkpoint(path, tiny_model(), meta)
        return
    save_checkpoint(path, tiny_model(), meta)
    assert read_checkpoint(path)[1] == {"vocab": VOCAB.chars, **meta}


def test_load_checkpoint_fingerprint_mismatch(tmp_path):
    model = tiny_model()
    tcfg = desk_recipe()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, {
        "fingerprint": config_fingerprint(model.config, tcfg),
        "model_cfg": serialize_config(model.config),
        "train_cfg": serialize_config(tcfg)})
    with pytest.raises(FingerprintError):
        load_checkpoint(path, train_cfg=desk_recipe(seed=99))


# -- prepare_sample / fit -------------------------------------------------


def test_prepare_sample_offsets_letter_rows():
    model = tiny_model()
    s = text_corpus(1)[0]
    (prep,) = prepare_sample(model, [s], TrainConfig(), [RngStream(0)])
    assert prep.prefix is None
    assert np.array_equal(prep.letter_rows, model.letter_rows(s.raw))
    assert np.array_equal(prep.tokens, model.encode_text(s.raw))


def test_fit_smoke_and_determinism(tmp_path):
    corpus = text_corpus(4)
    cfg = TrainConfig(learning_rate=1e-3, epochs=2, warmup_epochs=1,
                      batch_size=2, rdrop_alpha=0.5)

    def run(out):
        model = tiny_model(seed=3)
        return fit(corpus, model, cfg, out_dir=out)

    h1 = run(tmp_path / "a")
    h2 = run(tmp_path / "b")
    assert h1["loss"] == h2["loss"]
    assert len(h1["loss"]) == 2
    assert "checkpoints" not in h1
    # without a dev scorer the one file holds the final epoch
    assert os.listdir(tmp_path / "a") == ["selected.ckpt"]
    assert h1["selected"] == str(tmp_path / "a" / "selected.ckpt")
    assert all(math.isfinite(l) for l in h1["loss"])
    _, meta = read_checkpoint(h1["selected"])  # integrity-checked
    assert meta["epoch"] == "2"
    assert (tmp_path / "a" / "selected.ckpt").read_bytes() == \
        (tmp_path / "b" / "selected.ckpt").read_bytes()


def _snapshot_scorer(scores, snapshots):
    """A dev scorer returning the next of scores, after keeping a float32
    copy of the model's parameters as the epoch left them."""
    scores = iter(scores)

    def scorer(m):
        snapshots.append({k: np.array(p.data, dtype="<f4") for k, p in m.params.items()})
        return next(scores)
    return scorer


def test_fit_selects_best_dev_checkpoint(tmp_path):
    corpus = text_corpus(4)
    cfg = TrainConfig(learning_rate=1e-3, epochs=3, warmup_epochs=1,
                      batch_size=4)
    model = tiny_model()
    snapshots = []
    h = fit(corpus, model, cfg, out_dir=tmp_path,
            dev_scorer=_snapshot_scorer([0.5, 0.1, 0.4], snapshots))
    assert h["dev_wer"] == [0.5, 0.1, 0.4]
    assert os.listdir(tmp_path) == ["selected.ckpt"]
    tensors, meta = read_checkpoint(h["selected"])
    assert meta["epoch"] == "2"
    assert tensors.keys() == snapshots[1].keys()
    assert all(np.array_equal(tensors[k], snapshots[1][k]) for k in tensors)
    assert any(not np.array_equal(snapshots[1][k], snapshots[2][k]) for k in tensors)


def test_fit_keeps_the_earliest_of_equal_dev_scores(tmp_path):
    cfg = TrainConfig(learning_rate=1e-3, epochs=3, warmup_epochs=1, batch_size=4)
    h = fit(text_corpus(4), tiny_model(), cfg, out_dir=tmp_path,
            dev_scorer=_snapshot_scorer([0.3, 0.2, 0.2], []))
    assert read_checkpoint(h["selected"])[1]["epoch"] == "2"


def test_fit_that_fails_mid_run_leaves_the_last_selection(tmp_path):
    corpus = text_corpus(4)
    cfg = TrainConfig(learning_rate=1e-3, epochs=4, warmup_epochs=1, batch_size=4)
    snapshots = []
    record = _snapshot_scorer([0.5, 0.1], snapshots)

    def scorer(m):
        if len(snapshots) == 2:
            raise OSError("dev audio gone")
        return record(m)

    with pytest.raises(OSError, match="dev audio gone"):
        fit(corpus, tiny_model(), cfg, out_dir=tmp_path, dev_scorer=scorer)
    assert os.listdir(tmp_path) == ["selected.ckpt"]  # and no *.tmp file
    model = load_checkpoint(tmp_path / "selected.ckpt")
    assert read_checkpoint(tmp_path / "selected.ckpt")[1]["epoch"] == "2"
    assert all(np.array_equal(model.params[k].data, snapshots[1][k]) for k in snapshots[1])


@pytest.mark.parametrize("wer", [math.nan, math.inf])
def test_fit_refuses_a_non_finite_dev_wer(tmp_path, wer):
    cfg = TrainConfig(learning_rate=1e-3, epochs=3, warmup_epochs=1, batch_size=4)
    scorer = _snapshot_scorer([0.5, wer, 0.1], [])
    with pytest.raises(NumericError, match="epoch 2: dev WER"):
        fit(text_corpus(4), tiny_model(), cfg, out_dir=tmp_path, dev_scorer=scorer)
    assert read_checkpoint(tmp_path / "selected.ckpt")[1]["epoch"] == "1"


def test_fit_dev_scores_the_same_with_the_greedy_cache_off(tmp_path, monkeypatch):
    """The dev-scoring cache changes no bit of a desk run: dev predictions,
    dev WER and loss histories, and the selected checkpoint's bytes."""
    from multidiac import inference, metrics
    from multidiac.textproc import insert_diacritics

    spec = desk_synth_spec(sample_count=24)
    corpus = []
    for i in range(24):
        gold, wav = synthesize_sample(spec, RngStream(6).child(i))
        lab = label_from_diacritized(gold)
        corpus.append((gold, CorpusSample(f"s{i}", lab.raw, np.asarray(lab.labels), wav)))
    vocab = Vocabulary.from_texts([s.raw for _, s in corpus])
    train, dev = [s for _, s in corpus[:18]], corpus[18:]
    cfg = replace(desk_recipe(seed=5), epochs=3, warmup_epochs=1)
    encodes = []  # utterances per speech_encode call: rows of a stack
    encode = DiacritizerModel.speech_encode
    monkeypatch.setattr(DiacritizerModel, "speech_encode", lambda self, m: encodes.append(
        math.prod(m.values.shape[:-2])) or encode(self, m))

    def run(out):
        encodes.clear()
        model = DiacritizerModel(desk_config(vocab_size=len(vocab) + 3), vocab,
                                 RngStream(5))
        preds = []

        def scorer(m):
            classes = inference.predict_greedy_corpus(m, [(s.raw, s.waveform) for _, s in dev])
            preds.append({s.sample_id: insert_diacritics(s.raw, c)
                          for (_, s), c in zip(dev, classes)})
            return metrics.evaluate_corpus(preds[-1], {s.sample_id: g for g, s in dev}).wer

        h = fit(train, model, cfg, out_dir=out, dev_scorer=scorer)
        with open(h["selected"], "rb") as f:
            return h, preds, f.read(), sum(encodes)

    cached = run(tmp_path / "cached")
    monkeypatch.setattr(inference, "POOLED_CACHE_BYTES", 0)
    plain = run(tmp_path / "plain")
    for key in ("loss", "dev_wer"):
        assert cached[0][key] == plain[0][key]
    assert cached[1:3] == plain[1:3]
    # each epoch trains on 18 prefixes; dev is encoded in epoch 1 only
    assert (cached[3], plain[3]) == (3 * 18 + 6, 3 * 18 + 3 * 6)


def synth_corpus(n, seed):
    """n desk synth samples with audio, and the vocabulary of their texts."""
    spec = desk_synth_spec(sample_count=n)
    corpus = []
    for i in range(n):
        gold, wav = synthesize_sample(spec, RngStream(seed).child(i))
        lab = label_from_diacritized(gold)
        corpus.append(CorpusSample(f"s{i}", lab.raw, np.asarray(lab.labels), wav))
    return corpus, Vocabulary.from_texts([s.raw for s in corpus])


def test_prepare_sample_batch_is_bitwise_per_sample_preparation(monkeypatch):
    """A batch of audio and text-only samples, with noise and SpecAugment on
    and more utterances than one stack holds, prepares as each sample does
    alone: the same arrays and prefixes, and the same R-Drop objective and
    gradients bit for bit."""
    corpus, vocab = synth_corpus(7, seed=8)
    for i in (1, 4):
        corpus[i] = replace(corpus[i], waveform=None)
    cfg = replace(table1_primary(), speech_emb_dropout=0.0)
    mcfg = desk_config(vocab_size=len(vocab) + 3)
    rngs = [RngStream(2).child(i) for i in range(len(corpus))]
    monkeypatch.setattr(nm, "STACK_BUDGET_BYTES", stack_budget(mcfg, 2) + 1)
    stacks = []
    encode = DiacritizerModel.speech_encode
    monkeypatch.setattr(DiacritizerModel, "speech_encode", lambda self, m: stacks.append(
        m.values.shape[:-2]) or encode(self, m))
    runs = []
    for prepare in (lambda model: prepare_sample(model, corpus, cfg, rngs),
                    lambda model: [prepare_sample_reference(model, s, cfg, r)
                                   for s, r in zip(corpus, rngs)]):
        model = DiacritizerModel(mcfg, vocab, RngStream(4))
        samples = prepare(model)
        rdrop_objective(samples, model, cfg, RngStream(6)).backward()
        runs.append(([(s.tokens.tobytes(), s.letter_rows.tobytes(), s.targets.tobytes(),
                       None if s.prefix is None else s.prefix.data.tobytes())
                      for s in samples],
                     {n: p.grad.tobytes() for n, p in model.params.items()
                      if p.grad is not None}))
    assert stacks == [(2,), (2,), (1,)] + [()] * 5
    assert [s[3] is None for s in runs[0][0]] == [s.waveform is None for s in corpus]
    assert runs[0] == runs[1] and "proj.w" in runs[0][1]


@pytest.mark.parametrize("unfreeze_at", [0, 1])
def test_fit_with_an_unfrozen_speech_block_matches_per_sample_preparation(
        unfreeze_at, monkeypatch):
    """With the top speech block trainable from epoch 1 (or from epoch 2,
    after a frozen epoch that stacks), a desk fit has the loss history and
    parameters of one that prepares every sample alone."""
    corpus, vocab = synth_corpus(6, seed=9)
    cfg = replace(desk_recipe(seed=3), epochs=2, warmup_epochs=1, batch_size=4,
                  whisper_unfrozen=1, unfreeze_at_epoch=unfreeze_at)
    runs = []
    for per_sample in (False, True):
        if per_sample:
            monkeypatch.setattr(tr, "prepare_sample", lambda model, samples, cfg, rngs: [
                prepare_sample_reference(model, s, cfg, r) for s, r in zip(samples, rngs)])
        model = DiacritizerModel(desk_config(vocab_size=len(vocab) + 3), vocab, RngStream(7))
        history = fit(corpus, model, cfg)
        runs.append((history["loss"],
                     {n: p.data.tobytes() for n, p in model.params.items()}))
    assert runs[0] == runs[1]
    assert runs[0][1]["speech.block1.attn.wq"] != DiacritizerModel(
        desk_config(vocab_size=len(vocab) + 3), vocab, RngStream(7)).params[
        "speech.block1.attn.wq"].data.tobytes()


def test_full_width_trainable_speech_step_is_bitwise_the_whole_array_ops(monkeypatch):
    """One full-width 1 + 1 R-Drop step with the speech block trainable runs
    graph-mode attention and GELU in both encoders, whose backwards redo the
    probabilities, d*d and the tanh. Its loss, every gradient's bytes and
    every gradient's strides are those of the same step through the
    whole-array forms, which keep them, losses on one softmax node of the
    pass pair, and a sweep that keeps its graph, on any BLAS thread count."""
    corpus, vocab = synth_corpus(1, seed=10)
    mcfg = replace(full_scale_config(vocab_size=len(vocab) + 3), speech_blocks=1,
                   text_layers=1)
    cfg = table1_primary(seed=4)

    def step(objective):
        model = DiacritizerModel(mcfg, vocab, RngStream(11))
        model.freeze_speech_blocks(trainable_top=1)
        samples = prepare_sample(model, corpus, cfg, [RngStream(12)])
        loss = objective(samples, model, cfg, RngStream(13))
        loss.backward()
        return loss.data.tobytes(), {n: (p.grad.tobytes(), p.grad.strides)
                                     for n, p in model.params.items() if p.grad is not None}

    got = step(rdrop_objective)
    monkeypatch.setattr(nm, "scaled_dot_attention", attention_reference)
    monkeypatch.setattr(nm, "gelu", gelu_reference)
    monkeypatch.setattr(nm.Tensor, "backward", backward_reference)
    want = step(rdrop_objective_reference)
    assert {"speech.block0.mlp.w1", "text.block0.attn.bk"} <= got[1].keys()
    assert got == want


def test_a_sweep_lets_go_of_the_graph_it_has_walked():
    """After backward, a full-width 1 + 1 R-Drop step (frozen encoder, 2
    samples) holds little more than the parameters' gradients while its
    loss and samples are still referenced: the sweep has dropped each
    node's closure and parents, and the activations with them."""
    corpus, vocab = synth_corpus(2, seed=10)
    mcfg = replace(full_scale_config(vocab_size=len(vocab) + 3), speech_blocks=1,
                   text_layers=1)
    cfg = table1_primary(seed=4)
    model = DiacritizerModel(mcfg, vocab, RngStream(11))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        samples = prepare_sample(model, corpus, cfg, [RngStream(12).child(i) for i in range(2)])
        loss = rdrop_objective(samples, model, cfg, RngStream(13))
        loss.backward()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    grads = sum(p.grad.nbytes for p in model.params.values() if p.grad is not None)
    assert loss._parents == () and all(s.prefix is not None for s in samples)
    assert held < grads + 2 * 2**20


@pytest.mark.parametrize("unfrozen", [0, 1])
def test_a_fit_step_frees_its_graph_before_adamw_and_its_gradients_after(
        tmp_path, monkeypatch, unfrozen):
    """With the cyclic collector off, a step's loss and speech prefixes are
    dead when AdamW runs (with a trainable speech block too, whose graph
    runs through the encoder), and no parameter holds a gradient while dev
    scoring runs or a checkpoint is written."""
    corpus, vocab = synth_corpus(5, seed=9)
    corpus[2] = replace(corpus[2], waveform=None)
    cfg = replace(desk_recipe(seed=3), epochs=2, warmup_epochs=1, batch_size=2,
                  whisper_unfrozen=unfrozen, unfreeze_at_epoch=0)
    model = DiacritizerModel(desk_config(vocab_size=len(vocab) + 3), vocab, RngStream(7))
    refs, seen = [], []
    prepare, objective = tr.prepare_sample, tr.rdrop_objective
    adamw, save = tr.adamw_step, tr.save_checkpoint

    def prepare_watched(*args):
        samples = prepare(*args)
        for s in samples:
            if s.prefix is not None:
                refs.append(weakref.ref(s.prefix.data))
        return samples

    def objective_watched(*args):
        loss = objective(*args)
        refs.append(weakref.ref(loss.data))
        return loss

    def grads_held():
        return sum(p.grad is not None for p in model.params.values())

    def adamw_watched(*args):
        seen.append(("adamw", sum(r() is not None for r in refs), grads_held()))
        adamw(*args)

    def save_watched(*args):
        seen.append(("save", grads_held()))
        save(*args)

    def scorer(m):
        seen.append(("dev", grads_held()))
        return 0.5 / len(seen)  # a new best each epoch, so each epoch saves

    monkeypatch.setattr(tr, "prepare_sample", prepare_watched)
    monkeypatch.setattr(tr, "rdrop_objective", objective_watched)
    monkeypatch.setattr(tr, "adamw_step", adamw_watched)
    monkeypatch.setattr(tr, "save_checkpoint", save_watched)
    gc.disable()
    try:
        fit(corpus, model, cfg, out_dir=tmp_path, dev_scorer=scorer)
    finally:
        gc.enable()
    assert len(refs) == 2 * (4 + 3)  # per epoch: 4 prefixes and 3 losses
    trainable = sum(p.requires_grad for p in model.params.values())
    step = [("adamw", 0, trainable)] * 3
    assert seen == (step + [("dev", 0), ("save", 0)]) * 2
    assert any(n.startswith("speech.block1.") for n, p in model.params.items()
               if p.requires_grad) == bool(unfrozen)


def test_fit_rejects_empty_corpus():
    with pytest.raises(ConfigError):
        fit([], tiny_model(), TrainConfig())
