"""End-to-end CLI: synth -> train -> infer -> eval, config echo, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multidiac
from multidiac.cli import (EXIT_DATA, EXIT_NUMERIC, EXIT_USAGE, main,
                           read_run_config, write_run_config)
from multidiac.data import ManifestRecord, write_manifest
from multidiac.errors import ConfigError
from multidiac.inference import EnsembleConfig
from multidiac.audiofe import Waveform, save_wav
from multidiac.model import DiacritizerModel, ModelConfig, desk_config
from multidiac.numerics import RngStream
from multidiac.textproc import Vocabulary, insert_diacritics, strip_diacritics
from multidiac.training import (config_fingerprint, desk_recipe, save_checkpoint,
                                serialize_config)

BA, TA = "ب", "ت"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny synth corpus + short training run shared by the module."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    assert main(["synth", "--out", str(corpus), "--n", "12", "--seed", "5",
                 "--desk-shape"]) == 0
    run = root / "run"
    # a 2-epoch desk run: enough to produce checkpoints, not to converge
    cfg_path = root / "short.ini"
    from dataclasses import replace
    write_run_config(cfg_path, desk_config(),
                     replace(desk_recipe(), epochs=2, warmup_epochs=1), None, {})
    assert main(["train", "--manifest", str(corpus / "train.jsonl"),
                 "--dev-manifest", str(corpus / "dev.jsonl"),
                 "--out", str(run), "--config", str(cfg_path)]) == 0
    return corpus, run


def test_synth_writes_corpus(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path), "--n", "6", "--seed", "1",
               "--desk-shape"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "samples=6" in out
    assert (tmp_path / "train.jsonl").exists()
    assert (tmp_path / "dev.jsonl").exists()
    wavs = list((tmp_path / "audio").glob("*.wav"))
    assert len(wavs) == 6


def test_synth_deterministic(tmp_path):
    main(["synth", "--out", str(tmp_path / "a"), "--n", "4", "--seed", "9",
          "--desk-shape"])
    main(["synth", "--out", str(tmp_path / "b"), "--n", "4", "--seed", "9",
          "--desk-shape"])
    a = (tmp_path / "a" / "train.jsonl").read_text()
    b = (tmp_path / "b" / "train.jsonl").read_text()
    assert a == b
    wav = "audio/sample00003.wav"
    assert (tmp_path / "a" / wav).read_bytes() == (tmp_path / "b" / wav).read_bytes()


def test_train_outputs(trained):
    corpus, run = trained
    assert (run / "run_config.ini").exists()
    assert (run / "train.log").exists()
    cps = sorted(run.glob("epoch*.ckpt"))
    assert len(cps) == 2
    resolved = read_run_config(run / "run_config.ini")
    assert resolved["train"].epochs == 2
    assert resolved["model"].prefix_len == 10
    log = (run / "train.log").read_text()
    assert "epoch 1/2" in log and "dev_wer=" in log


def test_infer_and_eval_round_trip(trained, tmp_path, capsys):
    corpus, run = trained
    ckpts = sorted(str(p) for p in run.glob("epoch*.ckpt"))
    out = tmp_path / "preds"
    rc = main(["infer", "--checkpoints", ",".join(ckpts),
               "--manifest", str(corpus / "dev.jsonl"),
               "--out", str(out), "--passes", "2", "--seed", "0"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "total_passes=4" in stdout
    preds = [json.loads(l) for l in
             (out / "predictions.jsonl").read_text().splitlines()]
    gold = [json.loads(l) for l in
            (corpus / "dev.jsonl").read_text().splitlines()]
    assert [p["id"] for p in preds] == [g["id"] for g in gold]
    for p, g in zip(preds, gold):
        assert strip_diacritics(p["text"]) == strip_diacritics(g["text"])
        assert all(0.0 < c <= 1.0 for c in p["confidence"])

    rc = main(["eval", "--pred", str(out / "predictions.jsonl"),
               "--gold", str(corpus / "dev.jsonl")])
    assert rc == 0
    lines = capsys.readouterr().out
    assert "der=" in lines and "wer=" in lines and "ser=" in lines


def test_infer_deterministic(trained, tmp_path):
    corpus, run = trained
    ckpt = sorted(str(p) for p in run.glob("epoch*.ckpt"))[0]
    outs = []
    for name in ("x", "y"):
        out = tmp_path / name
        main(["infer", "--checkpoints", ckpt,
              "--manifest", str(corpus / "dev.jsonl"),
              "--out", str(out), "--passes", "3", "--seed", "7"])
        outs.append((out / "predictions.jsonl").read_text())
    assert outs[0] == outs[1]


def test_eval_flag_combinations(trained, tmp_path, capsys):
    corpus, _ = trained
    gold = corpus / "dev.jsonl"
    for ce in ("include", "exclude"):
        rc = main(["eval", "--pred", str(gold), "--gold", str(gold),
                   "--case-endings", ce, "--no-diacritic", "exclude"])
        assert rc == 0
        assert "der=0.0000" in capsys.readouterr().out


# -- exit codes ----------------------------------------------------------


def test_usage_error_unknown_flag(capsys):
    assert main(["synth", "--bogus"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_usage_error_bad_n(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path), "--n", "0"]) == EXIT_USAGE


def test_data_error_missing_or_malformed_manifest(tmp_path, capsys):
    rc = main(["train", "--manifest", str(tmp_path / "none.jsonl"),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n")
    rc = main(["train", "--manifest", str(bad), "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    assert "error:" in capsys.readouterr().err
    bad.write_bytes(b"\xff\xfe\n")
    assert main(["eval", "--pred", str(bad), "--gold", str(bad)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "UTF-8" in err and "Traceback" not in err


def test_data_error_alignment_mismatch(tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    gold = tmp_path / "gold.jsonl"
    write_manifest(pred, [ManifestRecord("a", "", insert_diacritics(BA, [1]))])
    write_manifest(gold, [ManifestRecord("a", "", insert_diacritics(TA, [1]))])
    assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == EXIT_DATA


def test_data_error_corrupt_checkpoint(trained, tmp_path, capsys):
    corpus, run = trained
    ckpt = sorted(run.glob("epoch*.ckpt"))[0]
    blob = bytearray(ckpt.read_bytes())
    blob[-1] ^= 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    rc = main(["infer", "--checkpoints", str(bad),
               "--manifest", str(corpus / "dev.jsonl"),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA


def _entry(name: bytes, extents, payload: bytes) -> bytes:
    return (struct.pack("<I", len(name)) + name + struct.pack("<I", len(extents))
            + b"".join(struct.pack("<Q", e) for e in extents) + payload)


def _checkpoint_blob(*entries: bytes, count=None, version=2) -> bytes:
    """A CWDK file of the given header version with a SHA-256 trailer
    around an arbitrary body."""
    body = (b"CWDK" + struct.pack("<I", version)
            + struct.pack("<I", len(entries) if count is None else count)
            + b"".join(entries))
    return body + hashlib.sha256(body).digest()


# (entries, declared count) of bodies that pass the trailer check but are
# not well formed
MALFORMED_BODIES = {
    # name length 1000 followed by one byte
    "name-past-end": ([struct.pack("<I", 1000) + b"x"], None),
    # entry header cut short
    "short-header": ([b"\x01\x00"], None),
    # more entries declared than present
    "missing-entry": ([_entry(b"w", (2,), b"\0" * 8)], 2),
    # rank far beyond the body
    "huge-rank": ([struct.pack("<I", 1) + b"w" + struct.pack("<I", 2 ** 31)], None),
    # extents whose product overflows int64
    "extent-overflow": ([_entry(b"w", (2 ** 40, 2 ** 40), b"\0" * 8)], None),
    # payload shorter than the extents declare
    "short-payload": ([_entry(b"w", (3, 4), b"\0" * 8)], None),
    # name and metadata that are not UTF-8
    "bad-utf8-name": ([_entry(b"\xff\xfe", (1,), b"\0" * 4)], None),
    "bad-utf8-meta": ([_entry(b"__meta", (2,), b"\xc3\x28")], None),
    # metadata entry without extents
    "rank0-meta": ([_entry(b"__meta", (), b"")], None),
    # zero-size tensors that numpy cannot shape
    "zero-size-huge-extent": ([_entry(b"w", (2 ** 63, 0), b"")], None),
    "zero-size-rank-70": ([_entry(b"w", (0,) * 70, b"")], None),
}


def _infer_rejects(corpus, tmp_path, capsys, blob) -> str:
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob)
    rc = main(["infer", "--checkpoints", str(bad),
               "--manifest", str(corpus / "dev.jsonl"),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()
    return err


@pytest.mark.parametrize("blob", [
    _checkpoint_blob(*entries, count=count, version=1)
    for entries, count in MALFORMED_BODIES.values()], ids=list(MALFORMED_BODIES))
def test_data_error_malformed_checkpoint_body(trained, tmp_path, capsys, blob):
    # a version-1 header is refused before the body is parsed, whatever it holds
    err = _infer_rejects(trained[0], tmp_path, capsys, blob)
    assert "unsupported format version 1" in err


@pytest.mark.parametrize("name", list(MALFORMED_BODIES))
def test_data_error_malformed_v2_checkpoint_body(trained, tmp_path, capsys, name):
    entries, count = MALFORMED_BODIES[name]
    err = _infer_rejects(trained[0], tmp_path, capsys,
                         _checkpoint_blob(*entries, count=count))
    assert "unsupported format version" not in err


@pytest.mark.parametrize("record", [
    {"id": "a", "audio": "", "text": 123},
    {"id": 7, "audio": "", "text": BA},
    {"id": "a", "audio": None, "text": BA},
    5,
])
def test_data_error_manifest_field_types(tmp_path, capsys, record):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert main(["eval", "--pred", str(path), "--gold", str(path)]) == EXIT_DATA
    assert "error:" in capsys.readouterr().err


def test_data_error_overlength_text(trained, tmp_path, capsys):
    corpus, run = trained
    ckpt = sorted(run.glob("epoch*.ckpt"))[0]
    limit = desk_config().max_text_len
    manifest = tmp_path / "long.jsonl"
    write_manifest(manifest, [ManifestRecord("long", "", BA * (limit + 1))])
    rc = main(["infer", "--checkpoints", str(ckpt), "--manifest", str(manifest),
               "--out", str(tmp_path / "o"), "--passes", "1"])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "exceeds maximum" in err and "Traceback" not in err


def test_infer_overlength_text_fails_before_writing(tmp_path, capsys):
    # the long record comes second: no prediction may be written before it
    ckpt = _desk_checkpoint(tmp_path / "m.ckpt")
    long = BA * (desk_config().max_text_len + 88)
    manifest = tmp_path / "in.jsonl"
    write_manifest(manifest, [
        ManifestRecord("short", "", insert_diacritics(BA + TA, [1, 2])),
        ManifestRecord("long", "", insert_diacritics(long, [1] * len(long)))])
    out = tmp_path / "o"
    rc = main(["infer", "--checkpoints", str(ckpt), "--manifest", str(manifest),
               "--out", str(out), "--passes", "1"])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert "'long'" in err and "exceeds maximum" in err and "Traceback" not in err
    assert not out.exists()


def test_train_overlength_dev_text_fails_before_writing(tmp_path, capsys):
    long = BA * (desk_config().max_text_len + 88)
    dev = tmp_path / "dev.jsonl"
    write_manifest(dev, [ManifestRecord("long", "", insert_diacritics(long, [1] * len(long)))])
    out = tmp_path / "o"
    rc = main(["train", "--manifest", str(_text_manifest(tmp_path / "in.jsonl")),
               "--dev-manifest", str(dev), "--out", str(out), "--preset", "desk"])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert "'long'" in err and "exceeds maximum" in err and "Traceback" not in err
    assert not out.exists()


def _text_manifest(path):
    write_manifest(path, [ManifestRecord("a", "", insert_diacritics(BA + TA, [1, 2]))])
    return path


def _desk_checkpoint(path, chars=BA + TA, **meta):
    """A checkpoint of a desk model over the vocabulary `chars`, with a
    valid trailer and the desk default metadata entries, overridden by
    `meta` (None drops an entry)."""
    model = DiacritizerModel(desk_config(), Vocabulary(chars), RngStream(0))
    entries = {"fingerprint": config_fingerprint(model.config, desk_recipe()),
               "model_cfg": serialize_config(model.config),
               "train_cfg": serialize_config(desk_recipe())}
    entries.update(meta)
    save_checkpoint(path, model, {k: v for k, v in entries.items() if v is not None})
    return path


@pytest.mark.parametrize("meta, expected, mention", [
    ({}, 0, None),
    ({"model_cfg": None}, EXIT_DATA, "model_cfg"),
    ({"train_cfg": None}, EXIT_DATA, "train_cfg"),
    ({"model_cfg": "text_dim=(("}, EXIT_DATA, "model_cfg"),
    ({"train_cfg": "seed=forty-two"}, EXIT_DATA, "train_cfg"),
    ({"model_cfg": serialize_config(desk_config()) + ";bogus=1"}, EXIT_DATA, "bogus"),
    ({"model_cfg": serialize_config(desk_config()) + ";text_heads=0"}, EXIT_DATA, "head"),
    ({"model_cfg": serialize_config(desk_config()) + ";text_dim=-64"}, EXIT_DATA, "text_dim"),
    ({"model_cfg": serialize_config(desk_config()) + ";text_layers=-1"}, EXIT_DATA,
     "text_layers"),
    ({"model_cfg": serialize_config(desk_config()) + ";text_heads=0.5"}, EXIT_DATA,
     "text_heads"),
], ids=["valid", "no-model-cfg", "no-train-cfg", "unparsable", "not-a-literal",
        "unknown-field", "zero-heads", "negative-dim", "negative-layers",
        "fractional-heads"])
def test_infer_checkpoint_config_metadata(tmp_path, capsys, meta, expected, mention):
    ckpt = _desk_checkpoint(tmp_path / "m.ckpt", **meta)
    rc = main(["infer", "--checkpoints", str(ckpt),
               "--manifest", str(_text_manifest(tmp_path / "in.jsonl")),
               "--out", str(tmp_path / "o"), "--passes", "2"])
    err = capsys.readouterr().err
    assert rc == expected, err
    assert "Traceback" not in err
    if mention:
        assert "error:" in err and mention in err


def test_infer_rejects_checkpoints_with_different_vocabularies(tmp_path, capsys):
    a = _desk_checkpoint(tmp_path / "a.ckpt")
    b = _desk_checkpoint(tmp_path / "b.ckpt", chars="ثجحخ")
    rc = main(["infer", "--checkpoints", f"{a},{b}",
               "--manifest", str(_text_manifest(tmp_path / "in.jsonl")),
               "--out", str(tmp_path / "o"), "--passes", "2"])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert "vocabulary" in err and str(b) in err and "Traceback" not in err


def test_infer_refuses_a_v1_checkpoint_before_writing(tmp_path, capsys):
    ckpt = _desk_checkpoint(tmp_path / "m.ckpt")
    blob = bytearray(ckpt.read_bytes())
    blob[4:8] = struct.pack("<I", 1)
    ckpt.write_bytes(bytes(blob))
    out = tmp_path / "o"
    rc = main(["infer", "--checkpoints", str(ckpt),
               "--manifest", str(_text_manifest(tmp_path / "in.jsonl")),
               "--out", str(out), "--passes", "2"])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert "unsupported format version 1" in err and "Traceback" not in err
    assert not out.exists()


def _desk_entries(meta: dict) -> list[bytes]:
    """The parameter entries of the desk model `_desk_checkpoint` saves,
    then a __meta entry holding exactly `meta`."""
    model = DiacritizerModel(desk_config(), Vocabulary(BA + TA), RngStream(0))
    meta_blob = "".join(f"{k}={v}\n" for k, v in meta.items()).encode()
    return [_entry(n.encode(), p.data.shape, p.data.astype("<f4").tobytes())
            for n, p in sorted(model.params.items())] + \
        [_entry(b"__meta", (len(meta_blob),), meta_blob)]


@pytest.mark.parametrize("case, expected, mention", [
    ("complete", 0, None),
    ("no-vocab", EXIT_DATA, "no vocab entry"),
    ("repeated-entry", EXIT_DATA, "'text.head.b' appears twice"),
], ids=["complete", "no-vocab", "repeated-entry"])
def test_infer_refuses_checkpoint_without_vocab_or_with_a_repeated_entry(
        tmp_path, capsys, case, expected, mention):
    meta = {"fingerprint": config_fingerprint(desk_config(), desk_recipe()),
            "model_cfg": serialize_config(desk_config()),
            "train_cfg": serialize_config(desk_recipe())}
    if case != "no-vocab":
        meta["vocab"] = BA + TA
    entries = _desk_entries(meta)
    if case == "repeated-entry":
        head_b = _entry(b"text.head.b", (15,), np.full(15, 7.0, "<f4").tobytes())
        entries.insert(-1, head_b)
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(_checkpoint_blob(*entries))
    out = tmp_path / "o"
    rc = main(["infer", "--checkpoints", str(ckpt),
               "--manifest", str(_text_manifest(tmp_path / "in.jsonl")),
               "--out", str(out), "--passes", "2"])
    err = capsys.readouterr().err
    assert rc == expected, err
    assert "Traceback" not in err
    if mention:
        assert mention in err and not out.exists()


def test_infer_refuses_a_repeated_metadata_key_before_writing(tmp_path, capsys):
    meta = {"fingerprint": config_fingerprint(desk_config(), desk_recipe()),
            "model_cfg": serialize_config(desk_config()),
            "train_cfg": serialize_config(desk_recipe()),
            "vocab": BA + TA}
    meta_blob = "".join(f"{k}={v}\n" for k, v in meta.items()).encode() + b"vocab=\n"
    entries = _desk_entries(meta)[:-1] + [_entry(b"__meta", (len(meta_blob),), meta_blob)]
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(_checkpoint_blob(*entries))
    out = tmp_path / "o"
    rc = main(["infer", "--checkpoints", str(ckpt),
               "--manifest", str(_text_manifest(tmp_path / "in.jsonl")),
               "--out", str(out), "--passes", "2"])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA, err
    assert "metadata key 'vocab' appears twice" in err and "Traceback" not in err
    assert not out.exists()


def test_infer_zero_passes_is_a_data_error(tmp_path, capsys):
    ckpt = _desk_checkpoint(tmp_path / "m.ckpt")
    rc = main(["infer", "--checkpoints", str(ckpt),
               "--manifest", str(_text_manifest(tmp_path / "in.jsonl")),
               "--out", str(tmp_path / "o"), "--passes", "0"])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert "passes_per_model" in err and "Traceback" not in err


def test_infer_dropout_one_is_a_data_error_before_writing(tmp_path, capsys):
    ckpt = _desk_checkpoint(tmp_path / "m.ckpt")
    out = tmp_path / "o"
    rc = main(["infer", "--checkpoints", str(ckpt),
               "--manifest", str(_text_manifest(tmp_path / "in.jsonl")),
               "--out", str(out), "--dropout", "1.0"])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert "inference_dropout_p" in err and "Traceback" not in err
    assert not out.exists()


def _wav_with_short_fmt(path):
    fmt = struct.pack("<HHI", 1, 1, 16000)  # 8 of the 16 bytes
    data = np.zeros(160, dtype="<i2").tobytes()
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data))
                     + b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                     + b"data" + struct.pack("<I", len(data)) + data)


def test_infer_malformed_wav_is_a_data_error(tmp_path, capsys):
    ckpt = _desk_checkpoint(tmp_path / "m.ckpt")
    _wav_with_short_fmt(tmp_path / "a.wav")
    manifest = tmp_path / "in.jsonl"
    write_manifest(manifest, [ManifestRecord(
        "a", "a.wav", insert_diacritics(BA + TA, [1, 2]))])
    rc = main(["infer", "--checkpoints", str(ckpt), "--manifest", str(manifest),
               "--out", str(tmp_path / "o"), "--passes", "2"])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert "fmt chunk" in err and "Traceback" not in err


def test_infer_malformed_wav_fails_before_writing(tmp_path, capsys):
    # the bad WAV belongs to the second record: no prediction may be written
    ckpt = _desk_checkpoint(tmp_path / "m.ckpt")
    _wav_with_short_fmt(tmp_path / "b.wav")
    manifest = tmp_path / "in.jsonl"
    write_manifest(manifest, [
        ManifestRecord("a", "", insert_diacritics(BA + TA, [1, 2])),
        ManifestRecord("b", "b.wav", insert_diacritics(TA + BA, [2, 1]))])
    out = tmp_path / "o"
    rc = main(["infer", "--checkpoints", str(ckpt), "--manifest", str(manifest),
               "--out", str(out), "--passes", "1"])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert "fmt chunk" in err and "Traceback" not in err
    assert not out.exists()


def _command(command, tmp_path, manifest, out):
    """train (desk preset) or infer (a desk checkpoint) argv."""
    if command == "train":
        return ["train", "--manifest", manifest, "--out", out, "--preset", "desk"]
    ckpt = _desk_checkpoint(tmp_path / "m.ckpt")
    return ["infer", "--checkpoints", str(ckpt), "--manifest", manifest,
            "--out", out, "--passes", "1"]


@pytest.mark.parametrize("command", ["train", "infer"])
@pytest.mark.parametrize("flag", ["--out", "--manifest"])
def test_non_utf8_path_is_a_usage_error_before_writing(tmp_path, capsys, command, flag):
    # an undecodable byte reaches argv as a lone surrogate, which the
    # [paths] section of run_config.ini cannot hold
    bad = str(tmp_path / os.fsdecode(b"bad\xffdir"))
    paths = {"--manifest": str(_text_manifest(tmp_path / "in.jsonl")),
             "--out": str(tmp_path / "o")}
    paths[flag] = bad
    rc = main(_command(command, tmp_path, paths["--manifest"], paths["--out"]))
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert f"argument {flag}" in err and "Traceback" not in err
    assert not os.path.exists(bad) and not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "infer"])
def test_lone_surrogate_in_manifest_is_a_data_error_before_writing(
        tmp_path, capsys, command):
    manifest = tmp_path / "in.jsonl"
    manifest.write_text(json.dumps({"id": "a", "audio": "", "text": BA + "\ud800"})
                        + "\n")
    out = tmp_path / "o"
    rc = main(_command(command, tmp_path, str(manifest), str(out)))
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert "not UTF-8" in err and "Traceback" not in err
    assert not out.exists()


def test_eval_deeply_nested_record_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "m.jsonl"
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    assert main(["eval", "--pred", str(path), "--gold", str(path)]) == EXIT_DATA
    assert "malformed record" in capsys.readouterr().err


@pytest.fixture(scope="module")
def micro_inputs(tmp_path_factory):
    """The bytes of a valid micro-model checkpoint (v2), a 0.2 s WAV and a
    manifest of one record with that WAV and one text-only record."""
    root = tmp_path_factory.mktemp("micro")
    cfg = ModelConfig(text_layers=1, text_dim=8, text_heads=1, speech_blocks=1,
                      speech_dim=8, speech_heads=1, speech_frames=20,
                      prefix_len=2, pool_factor=10, mels=8, mlp_ratio=1,
                      vocab_size=8, max_text_len=4)
    model = DiacritizerModel(cfg, Vocabulary(BA + TA), RngStream(0))
    save_checkpoint(root / "m.ckpt", model, {
        "fingerprint": config_fingerprint(cfg, desk_recipe()),
        "model_cfg": serialize_config(cfg),
        "train_cfg": serialize_config(desk_recipe())})
    save_wav(root / "a.wav", Waveform(np.sin(np.arange(3200) / 7.0).astype(np.float32) * 0.3))
    manifest = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in (
        {"id": "a", "audio": "a.wav", "text": insert_diacritics(BA + TA, [1, 2])},
        {"id": "b", "audio": "", "text": insert_diacritics(TA + BA, [0, 8])}))
    return ((root / "m.ckpt").read_bytes(), (root / "a.wav").read_bytes(),
            manifest.encode())


# pieces spliced into a manifest line: JSON structure, escapes, a non-UTF-8
# byte, a mark, a long text
MANIFEST_PIECES = [b'"', b"{", b"}", b",", b":", b"null", b"\\", b"\\ud800",
                   b"\n", b"\xff", "\u064e".encode(), (BA * 8).encode(),
                   b"../", b"a.wav"]


def _mutate(blob: bytes, data, pieces=()) -> bytes:
    """blob with up to 3 pieces spliced in, up to 4 bytes overwritten (half
    the time within its first 64 bytes, where the headers are), and maybe
    cut short."""
    blob = bytearray(blob)
    if pieces:
        for pos, piece in data.draw(st.lists(st.tuples(
                st.integers(0, len(blob)), st.sampled_from(pieces)), max_size=3)):
            blob[pos:pos] = piece
    where = st.one_of(st.integers(0, min(63, len(blob) - 1)),
                      st.integers(0, len(blob) - 1))
    for pos, value in data.draw(st.lists(st.tuples(where, st.integers(0, 255)),
                                         max_size=4)):
        blob[pos] = value
    cut = data.draw(st.one_of(st.none(), st.integers(0, len(blob))))
    return bytes(blob[:cut])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_infer_exits_with_a_documented_code_on_mutated_inputs(
        micro_inputs, tmp_path_factory, data):
    ckpt, wav, manifest = micro_inputs
    target = data.draw(st.sampled_from(["checkpoint", "sealed checkpoint",
                                        "wav", "manifest"]))
    if target == "checkpoint":
        ckpt = _mutate(ckpt, data)
    elif target == "sealed checkpoint":
        # a mutated body under a trailer that matches it
        body = _mutate(ckpt[:-32], data)
        ckpt = body + hashlib.sha256(body).digest()
    elif target == "wav":
        wav = _mutate(wav, data)
    else:
        manifest = _mutate(manifest, data, MANIFEST_PIECES)
    root = tmp_path_factory.mktemp("mutated")
    for name, blob in (("m.ckpt", ckpt), ("a.wav", wav), ("in.jsonl", manifest)):
        (root / name).write_bytes(blob)
    out = root / "o"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["infer", "--checkpoints", str(root / "m.ckpt"), "--manifest",
                   str(root / "in.jsonl"), "--out", str(out), "--passes", "2"])
    assert rc in (0, EXIT_DATA, EXIT_NUMERIC), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if rc == EXIT_DATA:
        assert not out.exists(), err.getvalue()


def test_desk_run_is_bitwise_equal_on_one_and_two_blas_threads(tmp_path):
    """A 4-sample desk train and a 50-pass infer, each in a process of its
    own per OPENBLAS_NUM_THREADS value, give the same checkpoint and the
    same predictions: at desk width no GEMM's bits depend on the thread
    count (the full-width speech attention's does; see README)."""
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--n", "4", "--seed", "0",
                 "--desk-shape"]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(multidiac.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
                       "PYTHONPATH")])))
        out = tmp_path / f"threads{threads}"

        def cli(*argv):
            done = subprocess.run([sys.executable, "-m", "multidiac.cli", *argv],
                                  env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            return done.stdout

        trained = cli("train", "--preset", "desk", "--manifest",
                      str(corpus / "train.jsonl"), "--out", str(out / "run"))
        ckpt = trained.split("selected=")[1].strip()
        cli("infer", "--checkpoints", ckpt, "--passes", "50", "--manifest",
            str(corpus / "dev.jsonl"), "--out", str(out / "infer"))
        outputs.append([hashlib.sha256(Path(path).read_bytes()).hexdigest()
                        for path in (ckpt, out / "infer" / "predictions.jsonl")])
    assert outputs[0] == outputs[1]


def test_train_config_with_zero_passes_is_a_data_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    write_run_config(cfg, desk_config(), desk_recipe(),
                     EnsembleConfig(passes_per_model=1), {})
    text = cfg.read_text()
    assert "passes_per_model = 1\n" in text
    cfg.write_text(text.replace("passes_per_model = 1\n", "passes_per_model = 0\n"))
    rc = main(["train", "--manifest", str(_text_manifest(tmp_path / "in.jsonl")),
               "--out", str(tmp_path / "o"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert "passes_per_model" in err and "Traceback" not in err


# (run config, gold text of the manifest's one record; None for _text_manifest's)
@pytest.mark.parametrize("text, gold", [(t, None) for t in [
    b"[model]\ntext_dim = ((\n",
    b"[model]\ntext_dim = abc\n",
    b"[train]\nlearning_rate = 'x'\n",
    b"text_dim = 64\n",
    b"[model]\ntext_dim = 64\n[model]\ntext_dim = 64\n",
    b"[model]\ntext_dim = \xff\xfe\n",
    b"[model]\ntext_dim = " + b"-" * 5000 + b"1\n",
    b"[model]\ntext_dim = " + b"-" * 20000 + b"1\n",
    b"[train]\nbatch_size = 0\n",
    b"[train]\nbatch_size = 'x'\n",
    b"[train]\nepochs = 25.5\n",
    b"[train]\nsnr_range = 5\n",
    b"[train]\nspecaug_freq = -3\n",
    b"[train]\nseed = 1.5\n",
    b"[train]\nwarmup_epochs = 1.5\n",
    b"[train]\nsnr_range = (30.0, 10.0)\n",
    b"[train]\nsnr_range = (10.0, 1e999)\n",
    b"[train]\nwhisper_unfrozen = 1\nunfreeze_at_epoch = 'x'\n",
    b"[train]\nunfreeze_at_epoch = -1\n",
    b"[train]\nmin_lr_factor = 'x'\n",
    b"[train]\nmin_lr_factor = 1.5\n",
    b"[train]\nwhisper_unfrozen = 1.5\n",
    b"[train]\nwhisper_unfrozen = -1\n",
    b"[model]\ndropout_p = 'x'\n",
    b"[model]\ndropout_p = 1.5\n",
    b"[model]\ndropout_p = 1.0\n",
    b"[model]\ndropout_p = 1e999\n",
    b"[model]\nmax_text_len = 'x'\n",
    b"[model]\nmax_text_len = -100\n",
    b"[ensemble]\npasses_per_model = 1.5\n",
    b"[ensemble]\ninference_dropout_p = 1.0\n",
    b"[ensemble]\ninference_dropout_p = 'x'\n",
    b"[ensemble]\nseed = 'x'\n",
    b"[model]\nmax_text_len = 1\n",
    b"[train]\nspecaug_freq = 81\n",
    b"[train]\nspecaug_time = 201\n",
    b"[train]\nwhisper_unfrozen = 4\n",
]] + [
    (b"[train]\nepochs = 2\nwarmup_epochs = 1\n", BA + TA),
    (b"[train]\nepochs = 2\nwarmup_epochs = 1\n",
     insert_diacritics(BA + "\n" + TA, [1, 2])),
], ids=["unparsable", "not-a-literal", "rejected-type", "no-section",
        "duplicate-section", "not-utf8", "deep-recursion", "deep-parser-stack",
        "zero-batch", "text-batch", "fractional-epochs", "scalar-snr-range",
        "negative-specaug-freq", "fractional-seed", "fractional-warmup",
        "reversed-snr-range", "infinite-snr-range", "text-unfreeze-epoch",
        "negative-unfreeze-epoch", "text-min-lr-factor", "min-lr-factor-above-1",
        "fractional-unfrozen", "negative-unfrozen", "text-dropout",
        "dropout-above-1", "dropout-1", "infinite-dropout", "text-max-len",
        "negative-max-len", "fractional-passes", "inference-dropout-1",
        "text-inference-dropout", "text-ensemble-seed", "text-past-max-len",
        "specaug-freq-past-mels", "specaug-time-past-frames",
        "unfrozen-past-blocks", "every-record-filtered", "newline-in-text"])
def test_train_malformed_config_is_a_data_error(tmp_path, capsys, text, gold):
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(text)
    manifest = tmp_path / "in.jsonl"
    if gold is None:
        _text_manifest(manifest)
    else:
        write_manifest(manifest, [ManifestRecord("a", "", gold)])
    rc = main(["train", "--manifest", str(manifest),
               "--out", str(tmp_path / "o"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_train_unfreezing_more_blocks_than_exist_fails_before_training(tmp_path, capsys):
    # alt-checkpoint4 unfreezes 4 speech blocks after epoch 15; desk has 2
    out = tmp_path / "o"
    rc = main(["train", "--manifest", str(_text_manifest(tmp_path / "in.jsonl")),
               "--out", str(out), "--preset", "alt-checkpoint4"])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert "speech blocks" in err and "Traceback" not in err
    assert not list(out.glob("*.ckpt"))


# -- run-config document -------------------------------------------------


def test_run_config_round_trip(tmp_path):
    p = tmp_path / "c.ini"
    write_run_config(p, desk_config(), desk_recipe(seed=5),
                     EnsembleConfig(passes_per_model=7), {"out": "x"})
    back = read_run_config(p)
    assert back["model"] == desk_config()
    assert back["train"] == desk_recipe(seed=5)
    assert back["ensemble"].passes_per_model == 7
    assert back["paths"]["out"] == "x"


def test_run_config_keeps_percent_in_paths(tmp_path):
    p = tmp_path / "c.ini"
    write_run_config(p, desk_config(), None, None, {"out": "run%1"})
    assert read_run_config(p)["paths"]["out"] == "run%1"


def test_run_config_rejects_unknown_section(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[mystery]\nkey = 1\n")
    with pytest.raises(ConfigError, match="section"):
        read_run_config(p)


def test_run_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[train]\nlearning_rate = 0.001\nbogus = 2\n")
    with pytest.raises(ConfigError, match="bogus"):
        read_run_config(p)
