"""MC-Dropout ensemble: averaging semantics, determinism, tie-breaking."""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from multidiac import inference
from multidiac import numerics as nm
from multidiac.audiofe import SAMPLE_RATE
from multidiac.errors import ConfigError, FingerprintError, ShapeError
from multidiac.inference import (EnsembleConfig, diacritize, ensemble_average,
                                 mc_forward, predict_greedy, predict_greedy_corpus)
from multidiac.model import (DiacritizerModel, MelSpectrogram, ModelConfig, desk_config,
                             full_scale_config, stack_size)
from multidiac.numerics import RngStream
from multidiac.training import OptimizerState, adamw_step
from multidiac.textproc import (ARABIC_LETTERS, Vocabulary, insert_diacritics,
                                label_from_diacritized, strip_diacritics)
from oracles import stack_budget

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
        monkeypatch.setattr(nm, "STACK_BUDGET_BYTES", stack_budget(model.config, per_chunk, seq))
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
                   .data.reshape(len(tokens), 15))
        for i in range(5)])
    assert got.dtype == ref.dtype == dtype
    np.testing.assert_allclose(got, ref, rtol=rtol, atol=0)


def test_mc_forward_normalises_c_contiguous_letter_row_logits_in_place(monkeypatch):
    """A desk 50-pass forward on the letter rows hands back C-contiguous
    logits, which the class softmax overwrites, and its one stack is
    returned as a view, not a copy. The probabilities are bitwise those rows
    of the whole forward's, normalised apart."""
    model = model_with()
    raw = "بتث بت، ثب"
    tokens, rows = model.encode_text(raw), model.letter_rows(raw)
    forward, logits = model.forward, []

    def keeping_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        logits.append(out.data)
        return out

    monkeypatch.setattr(model, "forward", keeping_forward)
    got = mc_forward(model, tokens, None, passes=50, p=0.1, rng=RngStream(4), rows=rows)
    assert len(logits) == 1 and logits[0].shape == (50, len(rows), 15)
    assert logits[0].flags.c_contiguous and np.shares_memory(got, logits[0])
    assert logits[0].tobytes() == got.tobytes() and not got.flags.writeable
    whole = mc_forward(model, tokens, None, passes=50, p=0.1, rng=RngStream(4))
    assert got.tobytes() == np.ascontiguousarray(whole[:, rows]).tobytes()


# a full-width sentence's tokens (about 167, 269 and 659) -> the passes one
# stack of a 50-pass mc_forward holds
FULL_WIDTH_STACKS = {167: 21, 269: 13, 659: 5}


def test_full_width_mc_stacks_stay_within_the_budget_and_are_bitwise_single_passes(
        monkeypatch):
    """A 50-pass mc_forward on a full-width model (1 speech, 2 text blocks)
    runs stacks of stack_size passes. Each stacked forward's tracemalloc
    peak stays within nm.STACK_BUDGET_BYTES, and the letters' probabilities
    are bitwise those of one pass per forward, on any BLAS thread count."""
    cfg = replace(full_scale_config(vocab_size=10), speech_blocks=1, text_layers=2)
    model = DiacritizerModel(cfg, VOCAB, RngStream(3))
    prefix = nm.tensor(np.random.default_rng(0).normal(0, 1, (cfg.prefix_len, cfg.text_dim)))
    monkeypatch.setattr(nm, "_mask_memo", nm._MaskMemo())
    forward, peaks = model.forward, []

    def traced_forward(*args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = forward(*args, **kwargs)
        peaks.append((len(args[2]), tracemalloc.get_traced_memory()[1] - base))
        return out

    def run(seq):
        raw = ("بتث " * seq)[:seq - cfg.prefix_len]
        return mc_forward(model, model.encode_text(raw), prefix, passes=50, p=0.1,
                          rng=RngStream(4), rows=model.letter_rows(raw))

    for seq, per in FULL_WIDTH_STACKS.items():
        assert stack_size(cfg, np.float32, seq) == per
        peaks.clear()
        monkeypatch.setattr(model, "forward", traced_forward)
        tracemalloc.start()
        try:
            stacked = run(seq)
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(model, "forward", forward)
        assert [n for n, _ in peaks] == [per] * (50 // per) + [50 % per] * (50 % per > 0)
        assert max(peak for _, peak in peaks) <= nm.STACK_BUDGET_BYTES
        with monkeypatch.context() as m:
            m.setattr(nm, "STACK_BUDGET_BYTES", 0)  # one pass per forward
            assert stacked.tobytes() == run(seq).tobytes()


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
    probs = nm.softmax(logits.data)[:, model.letter_rows(raw), :]
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
    wav = gen.normal(0, 0.1, SAMPLE_RATE).astype(np.float32)
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


def prefix_of(model, mel):
    """model's speech prefix of one log-mel, encoded alone."""
    frames = nm.mean_pool_time(model.speech_encode(MelSpectrogram(mel)),
                               model.config.pool_factor)
    return model.pool_project(frames)


def test_ensemble_computes_one_log_mel_per_input_shape(monkeypatch):
    calls = []

    def counting_log_mel(w, mels, frame_budget):
        calls.append((mels, frame_budget))
        return real_log_mel(w, mels=mels, frame_budget=frame_budget)

    real_log_mel = inference.log_mel
    models = [model_with(seed=s) for s in range(4)]
    cfg = EnsembleConfig(passes_per_model=2, seed=4)
    wav = np.random.default_rng(1).normal(0, 0.1, SAMPLE_RATE).astype(np.float32)
    # reference: each model's probabilities from its own log-mel
    run = RngStream(cfg.seed)
    tokens = models[0].encode_text("بت")
    rows = np.arange(2) + models[0].config.prefix_len
    per_model = []
    for mi, m in enumerate(models):
        mel = real_log_mel(wav, mels=m.config.mels, frame_budget=m.config.mel_frames)
        probs = mc_forward(m, tokens, prefix_of(m, mel), cfg.passes_per_model,
                           cfg.inference_dropout_p, run.child(mi))
        per_model.append(probs[:, rows, :])
    classes, conf = ensemble_average(per_model)

    monkeypatch.setattr(inference, "log_mel", counting_log_mel)
    text, confidence = diacritize("بت", wav, models, cfg)
    assert calls == [(80, 200)]
    assert text == insert_diacritics("بت", [int(c) for c in classes])
    assert confidence == [float(c) for c in conf]


@pytest.mark.parametrize("odd", ["vocabulary", "model config"])
def test_ensemble_refuses_a_mixed_member_before_any_log_mel(odd, encode_calls):
    """Averaging needs every member to read the same tokens into the same
    classes: a member whose vocabulary (or any config field, here the mel
    bins) differs from the first one's is refused by diacritize and by the
    per-sample loop, cached or not, before any log-mel or encode."""
    cfg = model_with().config
    if odd == "vocabulary":
        other = DiacritizerModel(cfg, Vocabulary("ثجحخ"), RngStream(5))
    else:
        other = DiacritizerModel(replace(cfg, mels=40), VOCAB, RngStream(5))
    models = [model_with(seed=0), model_with(seed=1), other]
    w = noise_wav(1)
    refused = pytest.raises(FingerprintError,
                            match=f"^member 2 has a different {odd} than member 0$")
    with refused:
        diacritize("بت", w, models, EnsembleConfig(passes_per_model=2))
    for cache in (False, True):
        with refused:
            next(inference._ensemble(models, [("بت", w)], 2, 0.1, 0, cache))
    assert (encode_calls["encode"], encode_calls["log_mel"]) == (0, 0)
    # the first two members alone are an ensemble
    diacritize("بت", w, models[:2], EnsembleConfig(passes_per_model=2))
    assert (encode_calls["encode"], encode_calls["log_mel"]) == (2, 1)


def test_an_empty_ensemble_is_refused_with_a_config_error(encode_calls):
    """With no member there is nothing to average: diacritize and the
    per-sample loop refuse an empty list before any log-mel or encode."""
    refused = pytest.raises(ConfigError, match="at least one model")
    with refused:
        diacritize("بت", None, [], EnsembleConfig(passes_per_model=2))
    with refused:
        next(inference._ensemble([], [("بت", noise_wav(1))], 2, 0.1, 0, False))
    assert (encode_calls["encode"], encode_calls["log_mel"]) == (0, 0)


def test_scoring_the_letter_rows_alone_predicts_what_the_whole_forward_does():
    """diacritize and predict_greedy_corpus run the letter rows alone past
    the last attention; they give what the whole forward's letter rows give,
    with and without audio, for one letter, no letters and a letter last."""
    models = [model_with(seed=s) for s in (0, 1)]
    cfg = EnsembleConfig(passes_per_model=5, seed=2)
    corpus = [("ب", None), (" .", None), ("بت ثب.", None), ("ت", noise_wav(1)),
              ("ثبت بت", noise_wav(2))]
    greedy = []
    for raw, w in corpus:
        tokens, rows = models[0].encode_text(raw), models[0].letter_rows(raw)
        prefixes = [None if w is None else prefix_of(m, inference.log_mel(
            w, mels=m.config.mels, frame_budget=m.config.mel_frames)) for m in models]
        probs = [mc_forward(m, tokens, prefix, cfg.passes_per_model, cfg.inference_dropout_p,
                            RngStream(cfg.seed).child(mi))[:, rows]
                 for mi, (m, prefix) in enumerate(zip(models, prefixes))]
        classes, conf = ensemble_average(probs)
        assert diacritize(raw, w, models, cfg) == (
            insert_diacritics(raw, [int(c) for c in classes]), [float(c) for c in conf])
        one = mc_forward(models[0], tokens, prefixes[0], 1, 0.0, RngStream(0))[:, rows]
        greedy.append([int(c) for c in ensemble_average([one])[0]])
    assert predict_greedy_corpus(models[0], corpus) == greedy


@pytest.mark.parametrize("seed", [0, 7])
def test_greedy_scoring_is_the_one_pass_p_zero_ensemble_at_any_seed(seed):
    """Greedy scoring keys its one pass by RngStream(0).child(0). At p = 0
    no key draws a mask, so it predicts the classes of a one-model, one-pass,
    p = 0 diacritize at any seed, with and without audio."""
    model = model_with(seed=2)
    corpus = [("بت", None), ("ثب تب", noise_wav(3)), ("تتب", None), ("بتث بت", noise_wav(4))]
    cfg = EnsembleConfig(passes_per_model=1, inference_dropout_p=0.0, seed=seed)
    want = [label_from_diacritized(diacritize(raw, w, [model], cfg)[0]).labels
            for raw, w in corpus]
    assert predict_greedy_corpus(model, corpus) == want


# -- the greedy dev-scoring cache ----------------------------------------


def noise_wav(seed, seconds=1.0):
    gen = np.random.default_rng(seed)
    return gen.normal(0, 0.1, int(seconds * SAMPLE_RATE)).astype(np.float32)


def fresh_copy(model):
    """A new model object with model's weights and an empty cache."""
    weights = {n: p.data.copy() for n, p in model.params.items()}
    return DiacritizerModel(model.config, model.vocab, weights=weights)


@pytest.fixture
def encode_calls(monkeypatch):
    """Counts DiacritizerModel.speech_encode and inference.log_mel calls,
    and keeps the log-mel shape of each encode."""
    calls = {"encode": 0, "log_mel": 0, "shapes": []}
    encode, log_mel = DiacritizerModel.speech_encode, inference.log_mel

    def counting_encode(self, m):
        calls["encode"] += 1
        calls["shapes"].append(m.values.shape)
        return encode(self, m)

    def counting_log_mel(*args, **kwargs):
        calls["log_mel"] += 1
        return log_mel(*args, **kwargs)

    monkeypatch.setattr(DiacritizerModel, "speech_encode", counting_encode)
    monkeypatch.setattr(inference, "log_mel", counting_log_mel)
    return calls


def cached(model):
    """model's greedy cache: {audio key: mean-pooled frames}."""
    return inference._pooled_cache[model][1]


def pooled_of(model, w):
    """The mean-pooled frames of w's log-mel, encoded alone."""
    mel = inference.log_mel(w, mels=model.config.mels, frame_budget=model.config.mel_frames)
    return nm.mean_pool_time(model.speech_encode(MelSpectrogram(mel)),
                             model.config.pool_factor).data


RAWS = ["بت", "ثب تب", "تتب"]


def test_predict_greedy_on_a_warm_cache_is_a_fresh_model(encode_calls):
    model = model_with(seed=2)
    wavs = [noise_wav(i) for i in range(3)]
    first = [predict_greedy(model, raw, w) for raw, w in zip(RAWS, wavs)]
    assert (encode_calls["encode"], encode_calls["log_mel"]) == (3, 3)
    for _ in range(2):
        warm = [predict_greedy(model, raw, w) for raw, w in zip(RAWS, wavs)]
        assert warm == first
    # hits skip the log-mel and the encoder
    assert (encode_calls["encode"], encode_calls["log_mel"]) == (3, 3)
    # the frames of a hit are bitwise the uncached ones
    fresh = fresh_copy(model)
    want = [pooled_of(fresh, w).tobytes() for w in wavs]
    assert [f.data.tobytes() for f in cached(model).values()] == want
    assert [predict_greedy(fresh, raw, w) for raw, w in zip(RAWS, wavs)] == first
    assert predict_greedy_corpus(fresh_copy(model), list(zip(RAWS, wavs))) == first
    # a waveform of other samples is a miss, the same samples in a new
    # object are a hit
    encode_calls["encode"] = 0
    predict_greedy(model, RAWS[0], noise_wav(7))
    predict_greedy(model, RAWS[0], wavs[0].copy())
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
    # the new entry is the edited model's frames; the old one is gone
    [entry] = cached(model).values()
    assert entry.data.tobytes() == pooled_of(fresh_copy(model), w).tobytes()


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
    # a cached entry holds no graph into the trainable block
    [entry] = cached(model).values()
    assert not entry.requires_grad


def test_a_full_cache_takes_no_more_entries(encode_calls, monkeypatch):
    model = model_with(seed=2)
    entry = model.config.prefix_len * model.config.speech_dim * 4
    monkeypatch.setattr(inference, "POOLED_CACHE_BYTES", 2 * entry + entry // 2)
    wavs = [noise_wav(i) for i in range(3)]
    for _ in range(3):
        for raw, w in zip(RAWS, wavs):
            predict_greedy(model, raw, w)
    # the first two are kept; the third is encoded on every pass
    assert len(cached(model)) == 2
    assert encode_calls["encode"] == 3 + 1 + 1
    # a corpus call that misses the third encodes it once more, alone
    encode_calls["shapes"].clear()
    predict_greedy_corpus(model, list(zip(RAWS, wavs)))
    assert encode_calls["shapes"] == [(1, 80, 200)] and len(cached(model)) == 2


def test_diacritize_never_touches_the_cache(encode_calls, monkeypatch):
    model = model_with(seed=2)
    w = noise_wav(1)
    monkeypatch.setattr(inference.hashlib, "sha256",
                        lambda *a: pytest.fail("diacritize hashed"))
    cfg = EnsembleConfig(passes_per_model=2, seed=4)
    for _ in range(2):
        diacritize("بت", w, [model], cfg)
    assert encode_calls["encode"] == 2 and model not in inference._pooled_cache


@pytest.fixture
def sha256_calls(monkeypatch):
    """The bytes fed to each SHA-256 that inference makes."""
    calls = []
    real = inference.hashlib.sha256

    class Counting:
        def __init__(self, data=b""):
            self.fed = len(memoryview(data).cast("B"))
            self.h = real(data)
            calls.append(self)

        def update(self, data):
            self.fed += len(memoryview(data).cast("B"))
            self.h.update(data)

        def digest(self):
            return self.h.digest()

    monkeypatch.setattr(inference.hashlib, "sha256", Counting)
    return calls


@pytest.mark.parametrize("n", [1, 8])
def test_a_corpus_call_digests_the_speech_weights_once(sha256_calls, n):
    """One digest of every speech.* byte per predict_greedy_corpus call,
    however many utterances it scores, cold or warm."""
    model = model_with(seed=2)
    speech = sum(p.data.nbytes for name, p in model.params.items()
                 if name.startswith("speech."))
    corpus = [(RAWS[i % 3], noise_wav(i)) for i in range(n)]
    for _ in range(2):
        sha256_calls.clear()
        predict_greedy_corpus(model, corpus)
        weights = [c.fed for c in sha256_calls if c.fed == speech]
        audio = [c.fed for c in sha256_calls if c.fed != speech]
        assert weights == [speech] and audio == [SAMPLE_RATE * 4] * n


def test_a_cold_desk_dev_set_encodes_each_utterance_once_alone(encode_calls):
    """A cold desk dev set is log-mel'd once per utterance and encoded one
    utterance at a time, with the predictions of N single calls; a warm one
    reads neither the log-mel nor the encoder. A repeated waveform is
    encoded once."""
    model = model_with(seed=2)
    wavs = [noise_wav(i) for i in range(8)]
    corpus = [(RAWS[i % 3], w) for i, w in enumerate(wavs)] + [(RAWS[0], wavs[2])]
    got = predict_greedy_corpus(model, corpus + [("بت", None)])
    assert encode_calls["shapes"] == [(1, 80, 200)] * 8 and encode_calls["log_mel"] == 8
    assert got == [predict_greedy(fresh_copy(model), raw, w) for raw, w in corpus] + \
        [predict_greedy(model, "بت", None)]
    encode_calls["shapes"].clear()
    encode_calls["log_mel"] = 0
    assert predict_greedy_corpus(model, corpus) == got[:-1]
    assert encode_calls["shapes"] == [] and encode_calls["log_mel"] == 0


def test_a_models_cache_dies_with_it():
    model = model_with(seed=2)
    predict_greedy(model, RAWS[0], noise_wav(1))
    gc.collect()  # an earlier test's model held only by a cycle goes first
    models = len(inference._pooled_cache)
    assert len(cached(model)) == 1
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None and len(inference._pooled_cache) == models - 1


def greedy_peak(model, n):
    """tracemalloc's peak, over what is held before, of a cold corpus call
    on n desk utterances."""
    corpus = [(RAWS[i % 3], noise_wav(100 + i)) for i in range(n)]
    inference._pooled_cache.pop(model, None)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        predict_greedy_corpus(model, corpus)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_corpus_call_with_a_trainable_speech_block_holds_one_graph():
    """With the top speech block trainable, a cold corpus call encodes each
    utterance alone with a graph and detaches it before the next: its peak
    does not grow by a graph, or a log-mel, per utterance. The bound is
    one utterance's graph plus the pooled frames of the rest."""
    model = model_with(seed=2)
    model.freeze_speech_blocks(trainable_top=1)
    mel = inference.log_mel(noise_wav(1), mels=80, frame_budget=model.config.mel_frames)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = list(model.pooled_frames([mel]))  # one utterance's graph, kept
        graph = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    del held
    pooled = model.config.prefix_len * model.config.speech_dim * 4
    greedy_peak(model, 2)  # warms every lazily built table
    two, sixteen = greedy_peak(model, 2), greedy_peak(model, 16)
    # premise: a log-mel held per utterance would break the last bound
    assert 14 * mel.nbytes > graph / 2 + 14 * 4 * pooled
    assert two < 1.5 * graph  # never two graphs at once
    assert sixteen - two < graph / 2 + 14 * 4 * pooled


# 2, 10 and 5 letters: the second outgrows the first's memoized masks, and
# the third is answered by the second's first rows
ORDERED = ["بت", "بتثبت ثبتثب", "ثبتثب"]


# stacks: None leaves all 50 passes in one; a budget of 1 pass of the
# longest sentence gives one pass per stack at every length; 16 gives stacks
# of 16 passes at 10 letters and longer ones for shorter sentences
@pytest.mark.parametrize("stacks", [None, 1, 16], ids=["one-stack", "single", "by-length"])
def test_memoized_masks_do_not_depend_on_sentence_order(monkeypatch, stacks):
    models = [model_with(seed=s) for s in (0, 1)]
    cfg = EnsembleConfig(passes_per_model=50, inference_dropout_p=0.1, seed=3)
    if stacks:
        longest = len(models[0].encode_text(ORDERED[1]))
        monkeypatch.setattr(nm, "STACK_BUDGET_BYTES",
                            stack_budget(models[0].config, stacks, longest))
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
