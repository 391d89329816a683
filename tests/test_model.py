"""Architecture: config validation, parameter counts, freeze policy,
fusion identity, forward determinism."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidiac import numerics as nm
from multidiac.errors import ConfigError, ShapeError
from multidiac.model import (
    DiacritizerModel, MelSpectrogram, ModelConfig, desk_config,
    full_scale_config, sinusoidal_table, speech_embedding_dropout, stack_size,
)
from multidiac.numerics import RngStream
from multidiac.textproc import (ARABIC_LETTERS, NUM_CLASSES, Vocabulary,
                                insert_diacritics, label_from_diacritized,
                                letter_indices)
from oracles import full_scale_parameter_counts, keys_of, stack_budget

VOCAB = Vocabulary("بتثجح")


def small_model(seed=0):
    return DiacritizerModel(desk_config(vocab_size=10), VOCAB, RngStream(seed))


def mel_for(cfg, seed=0):
    gen = np.random.default_rng(seed)
    return gen.normal(0, 0.5, size=(cfg.mels, cfg.mel_frames)).astype(np.float32)


# -- config --------------------------------------------------------------


def test_config_validates_pooling_arithmetic():
    with pytest.raises(ConfigError):
        ModelConfig(speech_frames=99, prefix_len=10, pool_factor=10)
    with pytest.raises(ConfigError):
        ModelConfig(text_dim=100, text_heads=3)
    with pytest.raises(ConfigError):
        ModelConfig(num_classes=14)
    for bad in ({"text_heads": 0}, {"speech_heads": 0}, {"text_dim": -64},
                {"text_layers": -1}, {"text_heads": 0.5}, {"mlp_ratio": True}):
        with pytest.raises(ConfigError):
            ModelConfig(**bad)


def test_mel_frames_is_twice_speech_frames():
    cfg = desk_config()
    assert cfg.mel_frames == 2 * cfg.speech_frames == 200
    assert full_scale_config().mel_frames == 3000


def test_full_scale_parameter_counts():
    total, trainable = full_scale_parameter_counts()
    # ~39M total / ~19M trainable within 25 percent
    assert abs(total - 39e6) / 39e6 < 0.25
    assert abs(trainable - 19e6) / 19e6 < 0.25
    assert (total, trainable) == (39_401_487, 19_575_823)


def test_sinusoidal_table_values():
    t = sinusoidal_table(4, 6)
    assert t.shape == (4, 6)
    assert np.allclose(t[0, 0::2], 0.0)
    assert np.allclose(t[0, 1::2], 1.0)
    inv = np.exp(-np.arange(0, 6, 2) * (np.log(10000.0) / 6))
    assert np.allclose(t[2, 0::2], np.sin(2 * inv), atol=1e-6)


def test_models_share_one_read_only_sinusoidal_table():
    a, b = small_model(), small_model()
    assert a._sin_table.data is b._sin_table.data
    assert a._sin_table.data is sinusoidal_table(a.config.speech_frames, a.config.speech_dim)
    assert not a._sin_table.data.flags.writeable


# -- freeze policy -------------------------------------------------------


def test_default_freeze_all_speech():
    model = small_model()
    names = [n for n, p in model.params.items() if p.requires_grad]
    assert names and all(not n.startswith("speech.") for n in names)


def test_partial_unfreeze_top_block():
    model = small_model()
    model.freeze_speech_blocks(trainable_top=1)
    names = {n for n, p in model.params.items() if p.requires_grad}
    assert any(n.startswith("speech.block1.") for n in names)
    assert not any(n.startswith("speech.block0.") for n in names)
    assert "speech.conv1.w" not in names
    assert "speech.ln_post.g" not in names


def test_full_unfreeze_includes_stem():
    model = small_model()
    model.freeze_speech_blocks(trainable_top=model.config.speech_blocks)
    names = {n for n, p in model.params.items() if p.requires_grad}
    assert "speech.conv1.w" in names and "speech.ln_post.g" in names


def test_unfreeze_too_many_rejected():
    model = small_model()
    with pytest.raises(ConfigError):
        model.freeze_speech_blocks(trainable_top=3)


def speech_prefix(model, mel):
    """The prefix of one log-mel, by the model's one encoder entry."""
    [pooled] = model.pooled_frames([mel])
    return model.pool_project(pooled)


def test_frozen_params_get_no_grad():
    model = small_model()
    mel = mel_for(model.config)
    out = speech_prefix(model, mel)
    out.sum().backward()
    assert model.params["proj.w"].grad is not None
    assert model.params["speech.block0.attn.wq"].grad is None
    assert model.params["speech.conv1.w"].grad is None


# -- fusion --------------------------------------------------------------


def test_zero_prefix_is_exactly_text_only():
    model = small_model()
    tokens = model.encode_text("بت بت")
    zero = nm.zeros((model.config.prefix_len, model.config.text_dim))
    a = model.forward(tokens, None).data
    b = model.forward(tokens, zero).data
    assert np.array_equal(a, b)


def test_nonzero_prefix_changes_letter_logits():
    model = small_model()
    tokens = model.encode_text("بت")
    gen = np.random.default_rng(1)
    pref = nm.tensor(gen.normal(0, 1, size=(model.config.prefix_len,
                                            model.config.text_dim)))
    a = model.forward(tokens, None).data
    b = model.forward(tokens, pref).data
    rows = slice(model.config.prefix_len, None)
    assert not np.allclose(a[rows], b[rows])


def test_encode_text_prefix_then_chars():
    model = DiacritizerModel(desk_config(vocab_size=10), Vocabulary("بت"),
                             RngStream(0))
    toks = model.encode_text("ب ت")
    assert toks.dtype == np.int64
    assert toks.tolist() == [Vocabulary.PREFIX] * model.config.prefix_len + [
        model.vocab.id_of("ب"), Vocabulary.UNK, model.vocab.id_of("ت")]


# letter_rows reads only the config, so one model serves every example
MODEL_FOR_ROWS = small_model()


@given(st.lists(st.one_of(st.sampled_from(sorted(ARABIC_LETTERS)),
                          st.sampled_from([" ", ".", "x", "\t"])), max_size=20),
       st.data())
@settings(max_examples=200, deadline=None)
def test_letter_rows_are_label_positions_past_the_prefix(chars, data):
    raw = "".join(chars)
    n = sum(c in ARABIC_LETTERS for c in raw)
    labels = data.draw(st.lists(st.integers(0, NUM_CLASSES - 1),
                                min_size=n, max_size=n))
    gold = insert_diacritics(raw, labels)
    model = MODEL_FOR_ROWS
    rows = model.letter_rows(raw)
    assert rows.dtype == np.int64
    assert rows.tolist() == [pos + model.config.prefix_len for pos in
                             letter_indices(label_from_diacritized(gold).raw)]


def test_forward_shapes_and_validation():
    model = small_model()
    cfg = model.config
    tokens = model.encode_text("بتث")
    out = model.forward(tokens, None)
    assert out.shape == (cfg.prefix_len + 3, cfg.num_classes)
    with pytest.raises(ShapeError):
        model.forward(tokens[1:], None)  # missing a prefix id
    with pytest.raises(ShapeError):
        model.forward(tokens, nm.zeros((cfg.prefix_len + 1, cfg.text_dim)))
    with pytest.raises(ShapeError):
        model.forward(np.concatenate(
            [tokens, np.full(cfg.max_text_len, 3)]), None)


def test_stacked_forward_validation():
    model = small_model()
    cfg = model.config
    tokens = np.stack([model.encode_text("بتث"), model.encode_text("ثتب")])
    prefix = nm.zeros((2, cfg.prefix_len, cfg.text_dim))
    keys = RngStream(1).child_keys(range(4))
    assert model.forward(tokens, prefix, keys).shape == (4, cfg.prefix_len + 3, 15)
    assert model.forward(tokens, prefix).shape == (2, cfg.prefix_len + 3, 15)
    bad_row = tokens.copy()
    bad_row[1, cfg.prefix_len - 1] = 3
    for args in [
            (bad_row, prefix, keys),  # row 1 lacks a prefix id
            (tokens, nm.zeros((3, cfg.prefix_len, cfg.text_dim)), keys),
            (tokens, nm.zeros((cfg.prefix_len, cfg.text_dim)), keys),
            (tokens, prefix, keys[:3]),  # not a whole number of passes each
            (tokens[None], None, keys),  # rank 3
            (tokens[:0], None, keys[:0])]:  # no samples
        with pytest.raises(ShapeError):
            model.forward(*args)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stacked_rows_are_one_sample_calls(dtype):
    """Row b*P + k of a B-sample stack is, bit for bit, row k of sample b's
    one-sample call with its own keys, prefix and tokens; so are the eval
    rows and the rows without a graph."""
    model = DiacritizerModel(desk_config(vocab_size=10), VOCAB, RngStream(4),
                             dtype=dtype)
    cfg = model.config
    tokens = np.stack([model.encode_text(t) for t in ("بتث جح", "حجث تب", "ججج بب")])
    prefix = nm.tensor(np.random.default_rng(5).normal(
        0, 1, size=(3, cfg.prefix_len, cfg.text_dim)), dtype=dtype)
    keys = np.concatenate([RngStream(6).child(b).child_keys([1, 2]) for b in range(3)])
    for grad in (True, False):
        stack = model.forward(tokens, prefix, keys, grad=grad)
        evals = model.forward(tokens, prefix, grad=grad)
        assert stack.shape == (6, tokens.shape[1], 15) and stack.dtype == dtype
        for b in range(3):
            one = nm.tensor(prefix.data[b], dtype=dtype)
            assert stack.data[2 * b:2 * b + 2].tobytes() == model.forward(
                tokens[b], one, keys[2 * b:2 * b + 2], grad=grad).data.tobytes()
            assert evals.data[b].tobytes() == \
                model.forward(tokens[b], one, grad=grad).data.tobytes()


def test_speech_encode_validates_mel_shape():
    model = small_model()
    cfg = model.config
    with pytest.raises(ShapeError):
        model.speech_encode(MelSpectrogram(
            np.zeros((cfg.mels, cfg.mel_frames - 1), dtype=np.float32)))
    with pytest.raises(ShapeError):
        model.speech_encode(MelSpectrogram(
            np.zeros((cfg.mels + 1, cfg.mel_frames), dtype=np.float32)))
    for shape in ((cfg.mel_frames,), (1, 1, cfg.mels, cfg.mel_frames)):
        with pytest.raises(ShapeError):
            model.speech_encode(MelSpectrogram(np.zeros(shape, dtype=np.float32)))


STACKED_ENCODERS = {  # config, utterances, pooled_frames' stack sizes
    "desk": (desk_config(vocab_size=10), 3, [3]),
    "full_width": (replace(full_scale_config(vocab_size=10), speech_blocks=1,
                           text_layers=1), 2, [1, 1]),
}


@pytest.mark.parametrize("case", list(STACKED_ENCODERS))
def test_stacked_speech_encode_is_bitwise_each_utterance(case, monkeypatch):
    """Each row of a stacked encode, and each of pooled_frames' outputs, is
    bitwise its utterance's own call, on any BLAS thread count. A desk
    batch stacks whole; a full-width utterance is encoded alone."""
    cfg, n, sizes = STACKED_ENCODERS[case]
    model = DiacritizerModel(cfg, VOCAB, RngStream(1))
    mels = [mel_for(cfg, seed) for seed in range(n)]
    stack = model.speech_encode(MelSpectrogram(np.stack(mels)))
    assert stack.shape == (n, cfg.speech_frames, cfg.speech_dim)
    stacks = []
    encode = DiacritizerModel.speech_encode
    monkeypatch.setattr(DiacritizerModel, "speech_encode", lambda self, m: stacks.append(
        len(m.values)) or encode(self, m))
    pooled = list(model.pooled_frames(iter(mels)))
    monkeypatch.undo()
    assert stacks == sizes
    for m, row, frames in zip(mels, stack.data, pooled, strict=True):
        alone = model.speech_encode(MelSpectrogram(m))
        assert row.tobytes() == alone.data.tobytes()
        assert frames.data.tobytes() == \
            nm.mean_pool_time(alone, cfg.pool_factor).data.tobytes()


@pytest.mark.parametrize("case", list(STACKED_ENCODERS))
def test_frozen_speech_encode_is_bitwise_the_graph_encode(case):
    """A frozen encode (GELU over its own input, attention in groups of
    one full-width head, nothing of attention held through the MLP) is
    bit for bit the encode of the same weights with a graph, on any BLAS
    thread count."""
    cfg = STACKED_ENCODERS[case][0]
    model = DiacritizerModel(cfg, VOCAB, RngStream(5))
    mel = MelSpectrogram(mel_for(cfg, 6))
    frozen = model.speech_encode(mel)
    model.freeze_speech_blocks(trainable_top=cfg.speech_blocks)
    traced = model.speech_encode(mel)
    assert traced.requires_grad and not frozen.requires_grad
    assert frozen.data.tobytes() == traced.data.tobytes()


def test_frozen_full_width_encode_temporaries_stay_under_28_mib():
    """A frozen full-width one-block encode peaks at 26.5 MiB under
    tracemalloc, in the conv stem; the block peaks at 26.2 MiB in attention.
    ln1's output goes once q, k and v exist (the block peaked at 29.3 MiB
    with it held), and GELU writes over the MLP hidden layer with nothing
    of the attention half held through the MLP (44.0 MiB before that)."""
    cfg = STACKED_ENCODERS["full_width"][0]
    model = DiacritizerModel(cfg, VOCAB, RngStream(5))
    mel = MelSpectrogram(mel_for(cfg, 6))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.speech_encode(mel)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 28 << 20


def test_stack_sizes_at_the_benchmark_shapes_are_unchanged():
    """Every desk sentence's 50 MC passes form one stack and a desk batch of
    8 utterances one encode; at full width 4 passes of 269 tokens form one
    stack, and a frozen encoder stack holds one utterance."""
    desk, full = desk_config(), full_scale_config()
    assert min(stack_size(desk, np.float32, seq)
               for seq in range(1, desk.prefix_len + desk.max_text_len + 1)) >= 50
    assert stack_size(desk, np.float32) >= 8
    assert stack_size(full, np.float32, 269) >= 4
    assert stack_size(full, np.float32) == 1


LETTER_ROW_FORWARDS = {  # config, pass counts; every P * letters stays
    # under 160 at full width, where a head GEMM of fewer rows gives other bits
    "desk": (desk_config(vocab_size=10), (1, 2, 50)),
    "full_width": (replace(full_scale_config(vocab_size=10), speech_blocks=1), (1, 2)),
}
# one letter, no letters, a letter at the last position, and letters
# between spaces and punctuation
LETTER_ROW_TEXTS = ["ب", " .", "بت ثجح", "ثب جح تب ."]


@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("case", list(LETTER_ROW_FORWARDS))
def test_forward_on_letter_rows_is_bitwise_those_rows_of_the_whole(case, layers):
    """forward(..., rows=r, grad=False) is bit for bit forward(...)[..., r, :],
    with and without a speech prefix, in eval and for each pass count. One
    letter in one pass runs every row and selects after."""
    cfg, passes = LETTER_ROW_FORWARDS[case]
    model = DiacritizerModel(replace(cfg, text_layers=layers), VOCAB, RngStream(2))
    speech = nm.tensor(np.random.default_rng(3).normal(
        0, 1, size=(cfg.prefix_len, cfg.text_dim)))
    for raw in LETTER_ROW_TEXTS:
        tokens, rows = model.encode_text(raw), model.letter_rows(raw)
        for prefix in (None, speech):
            for keys in [nm.NO_KEYS] + [RngStream(4).child_keys(range(n)) for n in passes]:
                whole = model.forward(tokens, prefix, keys, 0.1, grad=False).data
                got = model.forward(tokens, prefix, keys, 0.1, grad=False, rows=rows)
                assert got.shape == whole.shape[:-2] + (len(rows), 15)
                assert got.data.tobytes() == whole[..., rows, :].tobytes()


def test_forward_refuses_rows_with_a_graph_a_stack_or_out_of_order():
    model = small_model()
    tokens = model.encode_text("بتث")
    first = model.config.prefix_len
    with pytest.raises(ConfigError):
        model.forward(tokens, None, rows=[first])
    with pytest.raises(ConfigError):
        model.forward(np.stack([tokens, tokens]), None, grad=False, rows=[first])
    for rows in ([first, first], [first + 1, first], [-1], [len(tokens)], [[first]]):
        with pytest.raises(ShapeError):
            model.forward(tokens, None, grad=False, rows=rows)


def test_pooled_frames_reads_one_stack_at_a_time(monkeypatch):
    """pooled_frames takes its log-mels lazily: a frozen encoder reads one
    stack's worth before its first output, and nothing past it."""
    model = small_model()
    cfg = model.config
    monkeypatch.setattr(nm, "STACK_BUDGET_BYTES", stack_budget(cfg, 2))
    read = []

    def mels():
        for seed in range(5):
            read.append(seed)
            yield mel_for(cfg, seed)
    encoded = model.pooled_frames(mels())
    next(encoded)
    assert read == [0, 1]
    assert len(list(encoded)) == 4 and read == [0, 1, 2, 3, 4]


def test_pooled_frames_of_a_trainable_encoder_keep_their_graph(monkeypatch):
    """With a trainable speech block each utterance is encoded alone, and
    its pooled frames carry the gradient into that block."""
    model = small_model()
    model.freeze_speech_blocks(trainable_top=1)
    shapes = []
    encode = DiacritizerModel.speech_encode
    monkeypatch.setattr(DiacritizerModel, "speech_encode", lambda self, m: shapes.append(
        m.values.shape) or encode(self, m))
    pooled = list(model.pooled_frames(mel_for(model.config, s) for s in range(2)))
    assert shapes == [(model.config.mels, model.config.mel_frames)] * 2
    model.pool_project(pooled[1]).sum().backward()
    assert model.params["speech.block1.mlp.w2"].grad is not None
    assert model.params["speech.block0.mlp.w2"].grad is None


def test_speech_prefix_shape():
    model = small_model()
    pref = speech_prefix(model, mel_for(model.config))
    assert pref.shape == (model.config.prefix_len, model.config.text_dim)


def test_pool_project_matches_manual():
    model = small_model()
    cfg = model.config
    gen = np.random.default_rng(2)
    frames = gen.normal(0, 1, size=(cfg.speech_frames, cfg.speech_dim)) \
        .astype(np.float32)
    got = model.pool_project(nm.mean_pool_time(nm.tensor(frames), cfg.pool_factor)).data
    pooled = frames.reshape(cfg.prefix_len, cfg.pool_factor, cfg.speech_dim) \
        .mean(axis=1)
    want = pooled @ model.params["proj.w"].data + model.params["proj.b"].data
    assert np.allclose(got, want, atol=1e-5)


# -- determinism ---------------------------------------------------------


def test_eval_forward_deterministic():
    model = small_model()
    tokens = model.encode_text("بت")
    a = model.forward(tokens, None).data
    b = model.forward(tokens, None).data
    assert np.array_equal(a, b)


def test_training_forward_keyed_by_rng():
    model = small_model()
    tokens = model.encode_text("بت")
    a = model.forward(tokens, None, keys_of([RngStream(1)])).data
    b = model.forward(tokens, None, keys_of([RngStream(1)])).data
    c = model.forward(tokens, None, keys_of([RngStream(2)])).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_forward_without_grad_builds_no_graph():
    model = small_model()
    tokens = model.encode_text("بت")
    prefix = nm.tensor(np.ones((model.config.prefix_len, model.config.text_dim)),
                       requires_grad=True)
    keys = keys_of([RngStream(1), RngStream(2)])
    with_graph = model.forward(tokens, prefix, keys)
    without = model.forward(tokens, prefix, keys, grad=False)
    assert with_graph.requires_grad
    assert not without.requires_grad and not without._parents
    assert np.array_equal(with_graph.data, without.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_stream_rule(dtype):
    """One row per key for any p; row i is the stack of one with key i; no
    keys is eval, equal to a row of a p = 0 stack."""
    model = DiacritizerModel(desk_config(vocab_size=10), VOCAB, RngStream(0),
                             dtype=dtype)
    tokens = model.encode_text("بتث جح")
    seq = len(tokens)
    prefix = nm.tensor(np.random.default_rng(1).normal(
        0, 1, size=(model.config.prefix_len, model.config.text_dim)), dtype=dtype)
    keys = RngStream(3).child_keys(range(5))
    for p in (0.0, 0.1):
        stack = model.forward(tokens, prefix, keys, p)
        assert stack.shape == (5, seq, 15) and stack.dtype == dtype
        for grad in (True, False):
            for i in range(5):
                one = model.forward(tokens, prefix, keys[i:i + 1], p, grad=grad)
                assert np.array_equal(one.data, stack.data[i:i + 1])
    eval_logits = model.forward(tokens, prefix)
    assert eval_logits.shape == (seq, 15)
    assert np.array_equal(eval_logits.data,
                          model.forward(tokens, prefix, keys, 0.0).data[2])
    with pytest.raises(ShapeError):
        nm.dropout(nm.tensor(np.ones((3, seq, 8))), 0.1, keys[:2])


def test_init_deterministic_in_seed():
    a, b = small_model(7), small_model(7)
    for n in a.params:
        assert np.array_equal(a.params[n].data, b.params[n].data)
    c = small_model(8)
    assert not np.array_equal(a.params["proj.w"].data, c.params["proj.w"].data)


def test_vocab_too_large_rejected():
    with pytest.raises(ConfigError):
        DiacritizerModel(desk_config(vocab_size=4), VOCAB)


# -- speech embedding dropout -------------------------------------------


def test_speech_embedding_dropout_all_or_nothing():
    pref = nm.tensor(np.ones((4, 8)))
    zeroed = kept = 0
    for seed in range(200):
        out = speech_embedding_dropout(pref, 0.5, RngStream(seed))
        if np.all(out.data == 0):
            zeroed += 1
        else:
            assert np.array_equal(out.data, pref.data)  # no rescaling
            kept += 1
    assert 60 < zeroed < 140 and zeroed + kept == 200


def test_speech_embedding_dropout_eval_identity():
    pref = nm.tensor(np.ones((4, 8)))
    assert speech_embedding_dropout(pref, 0.0, RngStream(0)) is pref
