"""The acceptance property suite: fourteen numbered criteria, one printed
pass/fail line each. Heavyweight training fixtures are shared per module.

Run with plain pytest; the per-criterion lines bypass output capture so
they are visible in any log.
"""

import hashlib
import json
import math
import os
import shutil
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from multidiac import numerics as nm
from multidiac.cli import main as cli_main
from multidiac.data import (ManifestRecord, corpus_from_manifest,
                            desk_synth_spec, filter_corpus, synthesize_corpus)
from multidiac.errors import FormatError
from multidiac.inference import EnsembleConfig, diacritize, predict_greedy
from multidiac.metrics import MetricFlags, Tallies, score_pair
from multidiac.model import DiacritizerModel, desk_config
from multidiac.numerics import RngStream
from multidiac.textproc import (ARABIC_LETTERS, NUM_CLASSES, Vocabulary,
                                insert_diacritics, label_from_diacritized,
                                strip_diacritics)
from multidiac.training import (CorpusSample, TrainConfig, desk_recipe, fit,
                                focal_loss_ls, lr_at, prepare_sample,
                                rdrop_objective, read_checkpoint,
                                save_checkpoint, sym_kl, table1_primary)
from oracles import brute_force_reference, full_scale_parameter_counts


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_capture(capsys):
    # verdict lines must be visible even for passing tests, so they are
    # printed with capture suspended
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def verdict(num: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
    else:
        sys.__stdout__.write(line + "\n")
        sys.__stdout__.flush()
    assert ok, line


# -- shared fixtures -------------------------------------------------------


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    big = root / "c512"
    small = root / "c16"
    synthesize_corpus(desk_synth_spec(sample_count=512), RngStream(7), big)
    synthesize_corpus(desk_synth_spec(sample_count=16), RngStream(3), small)
    return big, small


def _dev_der(model, dev):
    t = Tallies()
    for s in dev:
        pred = predict_greedy(model, s.raw, s.waveform)
        t += score_pair(
            insert_diacritics(s.raw, pred),
            insert_diacritics(s.raw, [int(c) for c in s.targets]),
            MetricFlags())
    return t.der


def _fresh_model(corpus, seed=42, dtype=np.float32):
    vocab = Vocabulary.from_texts([s.raw for s in corpus])
    return DiacritizerModel(desk_config(vocab_size=len(vocab) + 3), vocab,
                            RngStream(seed), dtype=dtype)


# -- criteria --------------------------------------------------------------


def test_criterion_01_gradient_fidelity(corpora):
    """Reverse-mode gradient of the full training objective vs central
    finite differences on the desk preset, sampled coordinates."""
    t0 = time.time()
    big, _ = corpora
    corpus = corpus_from_manifest(big / "train.jsonl")[:1]
    model = _fresh_model(corpus, dtype=np.float64)
    cfg = desk_recipe()
    (sample,) = prepare_sample(model, corpus, cfg, [RngStream(0)])

    def objective():
        (s,) = prepare_sample(model, corpus, cfg, [RngStream(0)])
        return rdrop_objective([s], model, cfg, RngStream(1)).item()

    model.zero_grad()
    loss = rdrop_objective([sample], model, cfg, RngStream(1))
    loss.backward()

    h = 1e-4
    worst = 0.0
    probe = ["text.block0.attn.wq", "text.block1.mlp.w2", "text.char_emb",
             "text.pos_emb", "proj.w", "text.head.w", "text.ln_f.g"]
    pick = RngStream(5).generator()
    for name in probe:
        p = model.params[name]
        grad = np.zeros_like(p.data) if p.grad is None else p.grad
        flat = p.data.reshape(-1)
        for i in pick.choice(flat.size, size=min(6, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up = objective()
            flat[i] = orig - h
            down = objective()
            flat[i] = orig
            numeric = (up - down) / (2 * h)
            analytic = grad.reshape(-1)[i]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, err)
    elapsed = time.time() - t0
    verdict(1, "gradient fidelity", worst < 1e-3 and elapsed < 60,
            f"max rel err {worst:.2e}, {elapsed:.0f}s")


def test_criterion_02_rdrop_identities(corpora):
    big, _ = corpora
    corpus = corpus_from_manifest(big / "train.jsonl")[:1]
    # p=0: KL exactly 0, objective equals the single focal loss
    model0 = DiacritizerModel(
        replace(desk_config(vocab_size=40), dropout_p=0.0),
        Vocabulary.from_texts([corpus[0].raw]), RngStream(1),
        dtype=np.float64)
    cfg = replace(desk_recipe(), speech_emb_dropout=0.0)
    (s,) = prepare_sample(model0, corpus, cfg, [RngStream(0)])
    obj = rdrop_objective([s], model0, cfg, RngStream(2)).item()
    logits = model0.forward(s.tokens, s.prefix)
    rows = nm.embedding(logits, s.letter_rows)
    plain = focal_loss_ls(rows, s.targets, cfg.focal_gamma,
                          cfg.label_smoothing).item()
    kl = sym_kl(nm.tensor([rows.data, rows.data], dtype=np.float64)).item()
    ok_p0 = kl == 0.0 and abs(obj - plain) < 1e-7

    # alpha=0 with dropout on: objective equals mean of the two pass losses
    # float64 so the 1e-7 tolerance probes the identity, not f32 rounding
    model = _fresh_model(corpus, seed=3, dtype=np.float64)
    cfg0 = replace(desk_recipe(), rdrop_alpha=0.0)
    (s,) = prepare_sample(model, corpus, cfg0, [RngStream(0)])
    run = RngStream(9)
    obj = rdrop_objective([s], model, cfg0, run).item()
    srng = run.child(0)
    losses = []
    for pass_idx in (1, 2):
        logits = model.forward(s.tokens, s.prefix, srng.child_keys([pass_idx])) \
            .reshape(len(s.tokens), NUM_CLASSES)
        rows = nm.embedding(logits, s.letter_rows)
        losses.append(focal_loss_ls(rows, s.targets, cfg0.focal_gamma,
                                    cfg0.label_smoothing).item())
    ok_a0 = abs(obj - (losses[0] + losses[1]) / 2) < 1e-7
    verdict(2, "R-Drop identities", ok_p0 and ok_a0)


def test_criterion_03_loss_reductions():
    gen = np.random.default_rng(0)
    logits = nm.tensor(gen.normal(0, 2, size=(40, NUM_CLASSES)),
                       dtype=np.float64)
    targets = gen.integers(0, NUM_CLASSES, size=40)
    got = focal_loss_ls(logits, targets, gamma=0.0, epsilon=0.0).item()
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    ce = -logp[np.arange(40), targets].mean()
    ok_ce = abs(got - ce) < 1e-6

    # uniform logits: closed form -ln(1/15) * (1 - 1/15)^gamma
    uniform = nm.tensor(np.zeros((8, NUM_CLASSES)), dtype=np.float64)
    t = np.arange(8) % NUM_CLASSES
    ok_uniform = True
    for gamma in (0.0, 0.34, 1.0, 2.0):
        got = focal_loss_ls(uniform, t, gamma, epsilon=0.018).item()
        want = math.log(NUM_CLASSES) * (1 - 1 / NUM_CLASSES) ** gamma
        ok_uniform &= abs(got - want) < 1e-6
    verdict(3, "loss reductions", ok_ce and ok_uniform)


def test_criterion_04_postprocessing_invariants():
    gen = np.random.default_rng(11)
    letters = sorted(ARABIC_LETTERS)
    others = [" ", ".", ",", "x", "1", "ـ"]
    violations = 0
    for _ in range(10_000):
        n = int(gen.integers(1, 25))
        raw = "".join(
            letters[gen.integers(len(letters))] if gen.random() < 0.7
            else others[gen.integers(len(others))] for _ in range(n))
        k = sum(c in ARABIC_LETTERS for c in raw)
        preds = [int(c) for c in gen.integers(0, NUM_CLASSES, size=k)]
        out = insert_diacritics(raw, preds)  # raises on invariant breach
        if strip_diacritics(out) != raw:
            violations += 1
        lab = label_from_diacritized(out)
        if lab.labels != preds or lab.raw != raw:
            violations += 1
    verdict(4, "post-processing invariants", violations == 0,
            "10000 round trips")


def test_criterion_05_metric_oracle_equivalence():
    gen = np.random.default_rng(13)
    letters = sorted(ARABIC_LETTERS)[:12]
    flags = [MetricFlags(a, b) for a in (True, False) for b in (True, False)]
    mismatches = 0
    for _ in range(1000):
        words = [
            "".join(letters[gen.integers(len(letters))]
                    for _ in range(gen.integers(1, 5)))
            for _ in range(gen.integers(1, 5))]
        raw = " ".join(words)
        k = sum(c in ARABIC_LETTERS for c in raw)
        gold = insert_diacritics(raw, [int(c) for c in
                                       gen.integers(0, NUM_CLASSES, size=k)])
        pred = insert_diacritics(raw, [int(c) for c in
                                       gen.integers(0, NUM_CLASSES, size=k)])
        for fl in flags:
            if score_pair(pred, gold, fl) != brute_force_reference(pred, gold, fl):
                mismatches += 1
    # hand-counted worked example
    raw = "".join(letters[:3])
    gold = insert_diacritics(raw, [1, 2, 3])
    pred = insert_diacritics(raw, [1, 2, 4])
    r = score_pair(pred, gold)
    exact = (abs(r.der - 1 / 3) < 1e-12 and r.wer == 1.0 and r.ser == 1.0)
    verdict(5, "metric oracle equivalence", mismatches == 0 and exact,
            "1000 pairs x 4 flag sets")


def test_criterion_06_fusion_identity():
    model = DiacritizerModel(desk_config(vocab_size=10), Vocabulary("بتث"),
                             RngStream(4))
    tokens = model.encode_text("بت ث")
    zero = nm.zeros((model.config.prefix_len, model.config.text_dim))
    a = model.forward(tokens, None).data
    b = model.forward(tokens, zero).data
    verdict(6, "fusion identity", a.tobytes() == b.tobytes(), "bitwise")


@pytest.fixture(scope="module")
def primary_run(corpora, tmp_path_factory):
    """Full table1-primary run on the small corpus (all 40 epochs)."""
    _, small = corpora
    corpus = corpus_from_manifest(small / "train.jsonl")
    model = _fresh_model(corpus)
    before = {n: hashlib.sha256(p.data.tobytes()).hexdigest()
              for n, p in model.params.items() if n.startswith("speech.")}
    out = tmp_path_factory.mktemp("primary")
    history = fit(corpus, model, table1_primary(), out_dir=out)
    return model, before, history


def test_criterion_07_frozen_encoder_invariance(primary_run):
    model, before, history = primary_run
    after = {n: hashlib.sha256(p.data.tobytes()).hexdigest()
             for n, p in model.params.items() if n.startswith("speech.")}
    changed = [n for n in before if before[n] != after[n]]
    trained = len(history["loss"]) == table1_primary().epochs
    verdict(7, "frozen-encoder invariance", not changed and trained,
            f"{len(before)} tensors checksummed over "
            f"{len(history['loss'])} epochs")


def test_criterion_08_schedule_endpoints():
    cfg = table1_primary()
    total = 400  # warmup = round(400 * 3 / 40) = 30 steps
    ok = (abs(lr_at(0, total, cfg) - 0.0) < 1e-12
          and abs(lr_at(30, total, cfg) - 4.1e-6) < 1e-12
          and abs(lr_at(total, total, cfg) - 8.2e-9) < 1e-12)
    verdict(8, "schedule endpoints", ok, "0 / 4.1e-6 / 8.2e-9")


def test_criterion_09_mc_dropout_determinism(primary_run, corpora,
                                             tmp_path_factory, capsys):
    model, _, history = primary_run
    _, small = corpora
    dev = corpus_from_manifest(small / "dev.jsonl")
    raw, wav = dev[0].raw, dev[0].waveform

    cfg = EnsembleConfig(passes_per_model=5, seed=6)
    a = diacritize(raw, wav, [model], cfg)
    b = diacritize(raw, wav, [model], cfg)
    deterministic = a == b

    # p=0 with identical checkpoints degenerates to single-model argmax
    cfg0 = EnsembleConfig(passes_per_model=3, inference_dropout_p=0.0, seed=6)
    ens = diacritize(raw, wav, [model, model, model], cfg0)[0]
    single = insert_diacritics(raw, predict_greedy(model, raw, wav))
    degenerate = ens == single

    # 4 checkpoints x 50 passes reports 200 total passes via the CLI
    out = tmp_path_factory.mktemp("mc")
    ckpts = ",".join([history["selected"]] * 4)
    manifest = os.path.join(small, "dev.jsonl")
    one = out / "one.jsonl"
    with open(manifest, encoding="utf-8") as f, \
            open(one, "w", encoding="utf-8") as g:
        g.write(f.readline())
    shutil.copytree(os.path.join(small, "audio"), out / "audio")
    rc = cli_main(["infer", "--checkpoints", ckpts, "--manifest", str(one),
                   "--out", str(out / "p"), "--passes", "50", "--seed", "0"])
    stdout = capsys.readouterr().out
    reported = rc == 0 and "total_passes=200" in stdout
    verdict(9, "MC dropout determinism", deterministic and degenerate
            and reported)


def test_criterion_10_audio_contribution(corpora):
    big, _ = corpora
    train = corpus_from_manifest(big / "train.jsonl")
    dev = corpus_from_manifest(big / "dev.jsonl")
    cfg = desk_recipe()
    t0 = time.time()
    multi = _fresh_model(train)
    fit(train, multi, cfg)
    der_multi = _dev_der(multi, dev)
    # the text-only arm: the same samples without their audio
    text = _fresh_model(train)
    fit([replace(s, waveform=None) for s in train], text, cfg)
    der_text = _dev_der(text, [replace(s, waveform=None) for s in dev])
    elapsed = time.time() - t0
    ok = (der_multi < 0.10 and der_text - der_multi >= 0.20
          and elapsed < 900)
    verdict(10, "audio contribution", ok,
            f"multimodal {der_multi:.3f} vs text-only {der_text:.3f}, "
            f"{elapsed:.0f}s")


def test_criterion_11_overfit_sanity(corpora):
    _, small = corpora
    corpus = (corpus_from_manifest(small / "train.jsonl")
              + corpus_from_manifest(small / "dev.jsonl"))
    assert len(corpus) == 16
    model = _fresh_model(corpus)
    cfg = replace(desk_recipe(), epochs=200, warmup_epochs=5)
    t0 = time.time()
    fit(corpus, model, cfg)
    der = _dev_der(model, corpus)
    elapsed = time.time() - t0
    verdict(11, "overfit sanity", der < 0.05 and elapsed < 120,
            f"train DER {der:.4f}, {elapsed:.0f}s")


def test_criterion_12_filter_fidelity():
    gen = np.random.default_rng(17)
    letters = sorted(ARABIC_LETTERS)[:8]
    records = []
    below = 0
    for i in range(2327):
        n = int(gen.integers(5, 12))
        raw = "".join(letters[gen.integers(len(letters))] for _ in range(n))
        plant_low = below < 140 and gen.random() < 0.1
        if plant_low:
            marked = int(gen.integers(0, math.ceil(n * 0.6)))
            below += 1
        else:
            marked = int(gen.integers(math.ceil(n * 0.6), n + 1))
        labels = [1] * marked + [0] * (n - marked)
        records.append(ManifestRecord(f"r{i}", "",
                                      insert_diacritics(raw, labels)))
    # top up to exactly 140 planted low-ratio records
    i = 0
    while below < 140:
        n = 10
        raw = "".join(letters[gen.integers(len(letters))] for _ in range(n))
        records[i] = ManifestRecord(f"r{i}", "",
                                    insert_diacritics(raw, [1] * 3 + [0] * 7))
        below += 1
        i += 1
    kept, dropped = filter_corpus(records)
    verdict(12, "filter fidelity",
            len(records) == 2327 and len(dropped) == 140 and len(kept) == 2187,
            f"kept {len(kept)} of {len(records)}")


def test_criterion_13_parameter_count():
    total, trainable = full_scale_parameter_counts()
    ok = (abs(total - 39e6) / 39e6 < 0.25
          and abs(trainable - 19e6) / 19e6 < 0.25)
    verdict(13, "parameter count", ok,
            f"total {total:,} / trainable {trainable:,}")


def test_criterion_14_checkpoint_round_trip(primary_run, tmp_path):
    model, _, _ = primary_run
    tokens = model.encode_text("بت")
    before = model.forward(tokens, None).data.tobytes()
    path = tmp_path / "m.ckpt"
    from multidiac.training import (config_fingerprint, load_checkpoint,
                                    serialize_config)
    tcfg = table1_primary()
    save_checkpoint(path, model, {
        "fingerprint": config_fingerprint(model.config, tcfg),
        "model_cfg": serialize_config(model.config),
        "train_cfg": serialize_config(tcfg)})
    back = load_checkpoint(path)
    after = back.forward(back.encode_text("بت"), None).data.tobytes()
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0x40
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    rejected = False
    try:
        read_checkpoint(bad)
    except FormatError:
        rejected = True
    verdict(14, "checkpoint round trip", before == after and rejected,
            "bitwise forward + corrupt trailer rejected")
