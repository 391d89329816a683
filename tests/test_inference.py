"""MC-Dropout ensemble: averaging semantics, determinism, tie-breaking."""

import numpy as np
import pytest

from multidiac import inference
from multidiac import model as modelmod
from multidiac import numerics as nm
from multidiac.audiofe import SAMPLE_RATE, Waveform
from multidiac.errors import ConfigError, ShapeError
from multidiac.inference import (EnsembleConfig, diacritize, ensemble_average,
                                 mc_forward, predict_greedy)
from multidiac.model import DiacritizerModel, ModelConfig, desk_config
from multidiac.numerics import RngStream
from multidiac.training import OptimizerState, adamw_step
from multidiac.textproc import (ARABIC_LETTERS, Vocabulary, insert_diacritics,
                                label_from_diacritized, strip_diacritics)

VOCAB = Vocabulary("بتث")


def model_with(dropout=0.1, seed=0, dtype=np.float32):
    cfg = desk_config(vocab_size=10)
    cfg = ModelConfig(**{**cfg.__dict__, "dropout_p": dropout})
    return DiacritizerModel(cfg, VOCAB, RngStream(seed), dtype=dtype)


def test_ensemble_config_validation():
    with pytest.raises(ConfigError):
        EnsembleConfig(passes_per_model=0)


def test_ensemble_average_is_mean_then_argmax():
    a = np.array([[[0.6, 0.4], [0.1, 0.9]]])          # model 1, 1 pass
    b = np.array([[[0.2, 0.8], [0.3, 0.7]],
                  [[0.2, 0.8], [0.3, 0.7]]])          # model 2, 2 passes
    classes, conf = ensemble_average([a, b])
    mean = (a.sum(axis=0) + b.sum(axis=0)) / 3
    assert np.array_equal(classes, mean.argmax(axis=-1))
    assert np.allclose(conf, mean.max(axis=-1))


def test_ensemble_average_tie_breaks_low():
    flat = np.full((1, 2, 3), 1 / 3)
    classes, conf = ensemble_average([flat])
    assert np.array_equal(classes, [0, 0])
    assert np.allclose(conf, 1 / 3)


def test_ensemble_average_shape_mismatch():
    with pytest.raises(ShapeError):
        ensemble_average([np.ones((1, 2, 3)) / 3, np.ones((1, 3, 3)) / 3])


def test_mc_forward_deterministic_and_pass_keyed():
    model = model_with()
    tokens = model.encode_text("بت")
    a = mc_forward(model, tokens, None, passes=3, p=0.1, rng=RngStream(4))
    b = mc_forward(model, tokens, None, passes=3, p=0.1, rng=RngStream(4))
    assert np.array_equal(a, b)
    # distinct passes use distinct masks
    assert not np.array_equal(a[0], a[1])
    # each pass row is a distribution
    assert np.allclose(a.sum(axis=-1), 1.0, atol=1e-5)


def test_mc_forward_more_passes_extends_prefix_of_sequence():
    model = model_with()
    tokens = model.encode_text("بت")
    short = mc_forward(model, tokens, None, passes=2, p=0.1, rng=RngStream(4))
    long = mc_forward(model, tokens, None, passes=4, p=0.1, rng=RngStream(4))
    assert np.array_equal(short, long[:2])


def speech_prefix(model, seed=0):
    gen = np.random.default_rng(seed)
    shape = (model.config.prefix_len, model.config.text_dim)
    return nm.tensor(gen.normal(0.0, 1.0, size=shape), dtype=model.dtype)


def test_mc_forward_chunking_leaves_every_pass_unchanged(monkeypatch):
    model = model_with()
    tokens = model.encode_text("بتث بت")
    prefix = speech_prefix(model)
    seq = len(tokens)
    per_pass = inference.pass_bytes(model.config, seq, model.dtype)
    stacks = []
    forward = model.forward

    def counting_forward(*args, **kwargs):
        stacks.append(len(args[2]))
        logits = forward(*args, **kwargs)
        # no graph holds a chunk's activations
        assert not logits.requires_grad
        return logits

    monkeypatch.setattr(model, "forward", counting_forward)
    runs = {}
    for per_chunk in (1, 3, 7):
        monkeypatch.setattr(nm, "STACK_BUDGET_BYTES", per_chunk * per_pass)
        stacks.clear()
        runs[per_chunk] = mc_forward(model, tokens, prefix, passes=7, p=0.1,
                                     rng=RngStream(4))
        assert stacks == {1: [1] * 7, 3: [3, 3, 1], 7: [7]}[per_chunk]
    assert runs[1].shape == (7, seq, 15)
    assert np.array_equal(runs[1], runs[3])
    assert np.array_equal(runs[1], runs[7])


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_mc_forward_matches_per_pass_reference(dtype, rtol):
    model = model_with(dtype=dtype)
    tokens = model.encode_text("بتث بت")
    prefix = speech_prefix(model)
    rng = RngStream(11)
    got = mc_forward(model, tokens, prefix, passes=5, p=0.1, rng=rng)
    # one stack of one per pass, as the ensemble ran before stacking
    ref = np.stack([
        nm.softmax(model.forward(tokens, prefix, rng.child_keys([i]), dropout_p=0.1)
                   .reshape(len(tokens), 15), axis=-1).data
        for i in range(5)])
    assert got.dtype == ref.dtype == dtype
    np.testing.assert_allclose(got, ref, rtol=rtol, atol=0)


def test_mc_forward_p_zero_collapses_to_deterministic():
    model = model_with()
    tokens = model.encode_text("بت")
    out = mc_forward(model, tokens, None, passes=3, p=0.0, rng=RngStream(4))
    assert np.array_equal(out[0], out[1])
    assert np.array_equal(out[0], out[2])


def test_diacritize_at_p_zero_runs_one_pass_and_keeps_the_result(monkeypatch):
    model = model_with()
    raw = "بتث بت"
    forward = model.forward
    stacks = []

    def counting_forward(*args, **kwargs):
        stacks.append(len(args[2]))
        return forward(*args, **kwargs)

    monkeypatch.setattr(model, "forward", counting_forward)
    cfg = EnsembleConfig(passes_per_model=50, inference_dropout_p=0.0, seed=2)
    text, conf = diacritize(raw, None, [model], cfg)
    assert stacks == [1]
    # what the 50-pass stack it replaces gives: every row the eval output
    keys = RngStream(2).child(0).child_keys(range(50))
    logits = forward(model.encode_text(raw), None, keys, 0.0, grad=False)
    probs = nm.softmax(logits, axis=-1).data[:, model.letter_rows(raw), :]
    classes, expect_conf = ensemble_average([probs])
    assert text == insert_diacritics(raw, [int(c) for c in classes])
    assert conf == [float(c) for c in expect_conf]
    assert text == insert_diacritics(raw, predict_greedy(model, raw, None))


def test_diacritize_round_trips_raw_text():
    model = model_with()
    raw = "بت ث"
    cfg = EnsembleConfig(passes_per_model=3, seed=1)
    text, conf = diacritize(raw, None, [model], cfg)
    assert strip_diacritics(text) == raw
    n_letters = sum(c in ARABIC_LETTERS for c in raw)
    assert len(conf) == n_letters
    assert all(0.0 < c <= 1.0 for c in conf)
    # confidences are per-letter mean chosen-class probabilities
    lab = label_from_diacritized(text)
    assert len(lab.labels) == n_letters


def test_diacritize_deterministic_in_seed():
    model = model_with()
    cfg = EnsembleConfig(passes_per_model=4, seed=2)
    a = diacritize("بت", None, [model], cfg)
    b = diacritize("بت", None, [model], cfg)
    assert a == b


def test_diacritize_ensemble_differs_from_single():
    m1, m2 = model_with(seed=0), model_with(seed=99)
    cfg = EnsembleConfig(passes_per_model=2, seed=3)
    single = diacritize("بتث بت", None, [m1], cfg)
    pair = diacritize("بتث بت", None, [m1, m2], cfg)
    # same letters, possibly different labels; at minimum confidences move
    assert single[1] != pair[1] or single[0] != pair[0]


def test_diacritize_uses_audio():
    model = model_with()
    cfg = EnsembleConfig(passes_per_model=1, inference_dropout_p=0.0, seed=0)
    gen = np.random.default_rng(0)
    wav = Waveform(gen.normal(0, 0.1, SAMPLE_RATE).astype(np.float32))
    a = diacritize("بت", None, [model], cfg)
    b = diacritize("بت", wav, [model], cfg)
    assert a[1] != b[1]


def test_predict_greedy_matches_argmax_forward():
    model = model_with()
    raw = "بت"
    preds = predict_greedy(model, raw, None)
    logits = model.forward(model.encode_text(raw), None).data
    rows = [model.config.prefix_len + i
            for i, c in enumerate(raw) if c in ARABIC_LETTERS]
    assert preds == [int(logits[r].argmax()) for r in rows]


def test_ensemble_computes_one_log_mel_per_input_shape(monkeypatch):
    calls = []

    def counting_log_mel(w, mels, frame_budget):
        calls.append((mels, frame_budget))
        return real_log_mel(w, mels=mels, frame_budget=frame_budget)

    real_log_mel = inference.log_mel
    models = [model_with(seed=s) for s in range(4)]
    cfg = EnsembleConfig(passes_per_model=2, seed=4)
    wav = Waveform(np.random.default_rng(1).normal(0, 0.1, SAMPLE_RATE)
                   .astype(np.float32))
    # reference: each model's probabilities from its own log-mel
    run = RngStream(cfg.seed)
    tokens = models[0].encode_text("بت")
    rows = np.arange(2) + models[0].config.prefix_len
    per_model = []
    for mi, m in enumerate(models):
        mel = real_log_mel(wav, mels=m.config.mels, frame_budget=m.config.mel_frames)
        probs = mc_forward(m, tokens, m.speech_prefix(mel), cfg.passes_per_model,
                           cfg.inference_dropout_p, run.child(mi))
        per_model.append(probs[:, rows, :])
    classes, conf = ensemble_average(per_model)

    monkeypatch.setattr(inference, "log_mel", counting_log_mel)
    text, confidence = diacritize("بت", wav, models, cfg)
    assert calls == [(80, 200)]
    assert text == insert_diacritics("بت", [int(c) for c in classes])
    assert confidence == [float(c) for c in conf]

    # models with another mel shape get their own
    other = ModelConfig(**{**desk_config(vocab_size=10).__dict__, "mels": 40})
    calls.clear()
    diacritize("بت", wav, models[:2] + [DiacritizerModel(other, VOCAB, RngStream(5))],
               cfg)
    assert calls == [(80, 200), (40, 200)]


# -- the greedy dev-scoring cache ----------------------------------------


def noise_wav(seed, seconds=1.0):
    gen = np.random.default_rng(seed)
    return Waveform(gen.normal(0, 0.1, int(seconds * SAMPLE_RATE)).astype(np.float32))


def fresh_copy(model):
    """A new model object with model's weights and an empty cache."""
    weights = {n: p.data.copy() for n, p in model.params.items()}
    return DiacritizerModel(model.config, model.vocab, weights=weights)


@pytest.fixture
def encode_calls(monkeypatch):
    """Counts DiacritizerModel.speech_encode and inference.log_mel calls."""
    calls = {"encode": 0, "log_mel": 0}
    encode, log_mel = DiacritizerModel.speech_encode, inference.log_mel

    def counting_encode(self, m):
        calls["encode"] += 1
        return encode(self, m)

    def counting_log_mel(*args, **kwargs):
        calls["log_mel"] += 1
        return log_mel(*args, **kwargs)

    monkeypatch.setattr(DiacritizerModel, "speech_encode", counting_encode)
    monkeypatch.setattr(inference, "log_mel", counting_log_mel)
    return calls


RAWS = ["بت", "ثب تب", "تتب"]


def test_predict_greedy_on_a_warm_cache_is_a_fresh_model(encode_calls):
    model = model_with(seed=2)
    wavs = [noise_wav(i) for i in range(3)]
    first = [predict_greedy(model, raw, w) for raw, w in zip(RAWS, wavs)]
    assert encode_calls == {"encode": 3, "log_mel": 3}
    for _ in range(2):
        warm = [predict_greedy(model, raw, w) for raw, w in zip(RAWS, wavs)]
        assert warm == first
    # hits skip the log-mel and the encoder
    assert encode_calls == {"encode": 3, "log_mel": 3}
    # the prefix of a hit is bitwise the uncached one
    fresh = fresh_copy(model)
    for w in wavs:
        mel = inference.log_mel(w, mels=80, frame_budget=model.config.mel_frames)
        want = fresh.speech_prefix(mel).data
        got = model.cached_speech_prefix(w, lambda: pytest.fail("a miss")).data
        assert got.tobytes() == want.tobytes()
    assert [predict_greedy(fresh, raw, w) for raw, w in zip(RAWS, wavs)] == first
    # a waveform of other samples is a miss, the same samples in a new
    # object are a hit
    encode_calls["encode"] = 0
    predict_greedy(model, RAWS[0], noise_wav(7))
    predict_greedy(model, RAWS[0], Waveform(wavs[0].samples.copy()))
    assert encode_calls["encode"] == 1


def test_a_speech_weight_edited_in_place_forces_a_re_encode(encode_calls):
    model = model_with(seed=2)
    w = noise_wav(1)
    predict_greedy(model, RAWS[0], w)
    predict_greedy(model, RAWS[0], w)
    assert encode_calls["encode"] == 1
    model.params["speech.block1.mlp.w2"].data[3, 5] += 0.5
    predict_greedy(model, RAWS[0], w)
    assert encode_calls["encode"] == 2
    # the new entry is the edited model's prefix; the old one is gone
    mel = inference.log_mel(w, mels=80, frame_budget=model.config.mel_frames)
    want = fresh_copy(model).speech_prefix(mel).data
    assert model.cached_speech_prefix(w, None).data.tobytes() == want.tobytes()
    assert len(model._pooled) == 1


def test_an_adamw_step_on_unfrozen_speech_blocks_forces_a_re_encode(encode_calls):
    model = model_with(seed=2)
    w = noise_wav(1)
    model.freeze_speech_blocks(trainable_top=1)
    predict_greedy(model, RAWS[0], w)
    predict_greedy(model, RAWS[0], w)
    assert encode_calls["encode"] == 1
    state = OptimizerState()
    for step in range(2):
        for p in model.params.values():
            p.grad = np.full(p.data.shape, 0.1, dtype=p.data.dtype)
        adamw_step({n: p for n, p in model.params.items() if p.requires_grad},
                   state, 1e-3, 0.0)
        predict_greedy(model, RAWS[0], w)
        assert encode_calls["encode"] == 2 + step
    # a step on the text side alone keeps the entry
    model.freeze_speech_blocks(trainable_top=0)
    for p in model.params.values():
        p.grad = np.full(p.data.shape, 0.1, dtype=p.data.dtype)
    adamw_step(model.params, state, 1e-3, 0.0)
    predict_greedy(model, RAWS[0], w)
    assert encode_calls["encode"] == 3


def test_a_full_cache_takes_no_more_entries(encode_calls, monkeypatch):
    model = model_with(seed=2)
    entry = model.config.prefix_len * model.config.speech_dim * 4
    monkeypatch.setattr(modelmod, "POOLED_CACHE_BYTES", 2 * entry + entry // 2)
    wavs = [noise_wav(i) for i in range(3)]
    for _ in range(3):
        for raw, w in zip(RAWS, wavs):
            predict_greedy(model, raw, w)
    # the first two are kept; the third is encoded on every pass
    assert len(model._pooled) == 2
    assert encode_calls["encode"] == 3 + 1 + 1


def test_diacritize_never_touches_the_cache(encode_calls, monkeypatch):
    model = model_with(seed=2)
    w = noise_wav(1)
    monkeypatch.setattr(DiacritizerModel, "cached_speech_prefix",
                        lambda *a: pytest.fail("diacritize consulted the cache"))
    monkeypatch.setattr(modelmod.hashlib, "sha256",
                        lambda *a: pytest.fail("diacritize hashed"))
    cfg = EnsembleConfig(passes_per_model=2, seed=4)
    for _ in range(2):
        diacritize("بت", w, [model], cfg)
    assert encode_calls["encode"] == 2 and model._pooled == {}


# 2, 10 and 5 letters: the second outgrows the first's memoized masks, and
# the third is answered by the second's first rows
ORDERED = ["بت", "بتثبت ثبتثب", "ثبتثب"]


# stacks: None leaves all 50 passes in one; 1 pass_bytes of the longest
# sentence gives one pass per stack at every length; 16 gives stacks of 16
# passes at 10 letters and longer ones for shorter sentences
@pytest.mark.parametrize("stacks", [None, 1, 16], ids=["one-stack", "single", "by-length"])
def test_memoized_masks_do_not_depend_on_sentence_order(monkeypatch, stacks):
    models = [model_with(seed=s) for s in (0, 1)]
    cfg = EnsembleConfig(passes_per_model=50, inference_dropout_p=0.1, seed=3)
    if stacks:
        longest = len(models[0].encode_text(ORDERED[1]))
        monkeypatch.setattr(nm, "STACK_BUDGET_BYTES",
                            stacks * inference.pass_bytes(models[0].config, longest, np.float32))
    philox = np.random.Philox
    draws = []
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: draws.append(1) or philox(*a, **k))

    def run(texts, empty_each):
        monkeypatch.setattr(nm, "_mask_memo", nm._MaskMemo())
        draws.clear()
        out = {}
        for raw in texts:
            if empty_each:
                monkeypatch.setattr(nm, "_mask_memo", nm._MaskMemo())
            text, confidence = diacritize(raw, None, models, cfg)
            out[raw] = (text, np.array(confidence).tobytes())
        return out, len(draws), nm._mask_memo

    fresh, fresh_draws, _ = run(ORDERED, empty_each=True)
    forward, forward_draws, memo = run(ORDERED, empty_each=False)
    backward, backward_draws, _ = run(ORDERED[::-1], empty_each=False)
    assert forward == fresh and backward == fresh
    assert {a.shape[0] for a in memo.values()} == \
        {None: {50}, 1: {1}, 16: {16, 2, 22, 6, 28}}[stacks]
    if stacks == 16:
        # a stack size that changes with the length changes the key arrays:
        # every sentence misses
        assert forward_draws == backward_draws == fresh_draws
    else:
        # the 5-letter sentence draws nothing after the 10-letter one
        assert forward_draws < fresh_draws and backward_draws < fresh_draws
