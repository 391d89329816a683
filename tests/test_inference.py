"""MC-Dropout ensemble: averaging semantics, determinism, tie-breaking."""

import numpy as np
import pytest

from multidiac import inference
from multidiac import numerics as nm
from multidiac.audiofe import SAMPLE_RATE, Waveform
from multidiac.errors import ConfigError, ShapeError
from multidiac.inference import (EnsembleConfig, diacritize, ensemble_average,
                                 mc_forward, predict_greedy)
from multidiac.model import DiacritizerModel, ModelConfig, desk_config
from multidiac.numerics import RngStream
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
        monkeypatch.setattr(inference, "SCORE_BUDGET_BYTES", per_chunk * per_pass)
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
