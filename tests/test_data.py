"""Manifests, the ratio filter, and the synthetic tone corpus."""

import json
import os

import numpy as np
import pytest

from multidiac.audiofe import SAMPLE_RATE, load_wav
from multidiac.data import (
    RATIO_THRESHOLD, ManifestRecord, SynthSpec, corpus_from_manifest,
    default_tone_map, desk_synth_spec, filter_corpus, load_manifest,
    synthesize_corpus, synthesize_sample, write_manifest,
)
from multidiac.errors import ManifestError
from multidiac.numerics import RngStream
from multidiac.textproc import (NUM_CLASSES, diacritization_ratio,
                                insert_diacritics, label_from_diacritized,
                                letter_indices, strip_diacritics)

BA, TA, FATHA = "ب", "ت", "َ"


# -- manifests -----------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    recs = [ManifestRecord("a", "", BA + FATHA), ManifestRecord("b", "", TA)]
    p = tmp_path / "m.jsonl"
    write_manifest(p, recs)
    assert load_manifest(p) == recs


def test_manifest_rejects_malformed_json(tmp_path):
    p = tmp_path / "m.jsonl"
    p.write_text('{"id": "a", "audio": "", "text": "x"}\nnot json\n')
    with pytest.raises(ManifestError, match=":2"):
        load_manifest(p)


def test_manifest_rejects_missing_field(tmp_path):
    p = tmp_path / "m.jsonl"
    p.write_text('{"id": "a", "text": "x"}\n')
    with pytest.raises(ManifestError, match="audio"):
        load_manifest(p)


def test_manifest_rejects_duplicate_id(tmp_path):
    p = tmp_path / "m.jsonl"
    rec = {"id": "a", "audio": "", "text": "x"}
    p.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(p)


def test_manifest_checks_audio_existence(tmp_path):
    p = tmp_path / "m.jsonl"
    p.write_text('{"id": "a", "audio": "missing.wav", "text": "x"}\n')
    with pytest.raises(ManifestError, match="not found"):
        load_manifest(p)
    assert len(load_manifest(p, check_audio=False)) == 1


def test_manifest_skips_blank_lines(tmp_path):
    p = tmp_path / "m.jsonl"
    p.write_text('\n{"id": "a", "audio": "", "text": "x"}\n\n')
    assert len(load_manifest(p)) == 1


# -- ratio filter --------------------------------------------------------


def test_filter_threshold_and_boundary():
    full = insert_diacritics(BA + TA, [1, 2])        # ratio 1.0
    half = insert_diacritics(BA + TA, [1, 0])        # ratio 0.5
    at_boundary = insert_diacritics(BA + TA + TA + TA + TA, [1, 2, 3, 0, 0])
    assert diacritization_ratio(at_boundary) == pytest.approx(0.6)
    records = [ManifestRecord("full", "", full),
               ManifestRecord("half", "", half),
               ManifestRecord("edge", "", at_boundary)]
    kept, dropped = filter_corpus(records)
    assert [r.id for r in kept] == ["full", "edge"]  # boundary kept
    assert dropped == [{"id": "half", "ratio": 0.5}]
    assert RATIO_THRESHOLD == 0.6


def test_filter_custom_threshold():
    rec = ManifestRecord("x", "", insert_diacritics(BA + TA, [1, 0]))
    kept, _ = filter_corpus([rec], threshold=0.5)
    assert kept == [rec]


# -- synthetic corpus ----------------------------------------------------


def test_tone_map_shape():
    tones = default_tone_map()
    assert len(tones) == NUM_CLASSES
    assert len(set(tones)) == NUM_CLASSES
    assert tones[0] == pytest.approx(300.0)
    assert tones[-1] == pytest.approx(4200.0)
    assert (np.diff(tones) > 0).all()
    assert tones[-1] < SAMPLE_RATE / 2


def test_synth_spec_validation():
    with pytest.raises(ManifestError):
        SynthSpec(tone_map=tuple([440.0] * NUM_CLASSES))
    with pytest.raises(ManifestError):
        SynthSpec(tone_map=tuple(np.linspace(100, 9000, NUM_CLASSES)))


def test_desk_shape_fits_frame_budget():
    spec = desk_synth_spec()
    # 4 words x 2 letters x 200 ms = 1.6 s of tones, within the 2 s budget
    max_letters = spec.words[1] * spec.word_length[1]
    assert max_letters * spec.tone_duration_ms <= 2000.0
    assert max_letters <= 10  # one pooled prefix slot per letter


def test_synthesize_sample_structure():
    spec = desk_synth_spec()
    gold, wav = synthesize_sample(spec, RngStream(3))
    lab = label_from_diacritized(gold)
    n_letters = len(lab.letter_positions)
    assert len(lab.word_boundaries) == 4
    assert n_letters == 8
    want = int(round(n_letters * spec.tone_duration_ms * SAMPLE_RATE / 1000))
    assert len(wav.samples) == want
    assert np.abs(wav.samples).max() <= 0.4


def test_synthesize_sample_tone_encodes_class():
    spec = desk_synth_spec(noise_floor=0.0)
    gold, wav = synthesize_sample(spec, RngStream(5))
    lab = label_from_diacritized(gold)
    n_tone = int(round(spec.tone_duration_ms * SAMPLE_RATE / 1000))
    for k, cls in enumerate(lab.labels):
        seg = wav.samples[k * n_tone:(k + 1) * n_tone].astype(np.float64)
        spectrum = np.abs(np.fft.rfft(seg))
        freq = np.fft.rfftfreq(len(seg), 1 / SAMPLE_RATE)[spectrum.argmax()]
        assert abs(freq - spec.tone_map[cls]) < 10.0


def test_synthesize_deterministic():
    spec = desk_synth_spec(noise_floor=0.01)
    a = synthesize_sample(spec, RngStream(9))
    b = synthesize_sample(spec, RngStream(9))
    assert a[0] == b[0]
    assert np.array_equal(a[1].samples, b[1].samples)
    c = synthesize_sample(spec, RngStream(10))
    assert a[0] != c[0] or not np.array_equal(a[1].samples, c[1].samples)


def test_synthesize_corpus_layout(tmp_path):
    spec = desk_synth_spec(sample_count=8)
    train, dev = synthesize_corpus(spec, RngStream(1), tmp_path)
    assert len(train) == 7 and len(dev) == 1
    for r in train + dev:
        assert os.path.exists(tmp_path / r.audio)
        assert diacritization_ratio(r.text) >= 0  # parses
    # manifests load back and reference playable audio
    samples = corpus_from_manifest(tmp_path / "train.jsonl")
    assert len(samples) == 7
    s = samples[0]
    assert s.waveform is not None and len(s.targets) == len(letter_indices(s.raw))
    assert strip_diacritics(train[0].text) == s.raw


def test_corpus_from_manifest_text_only(tmp_path):
    p = tmp_path / "m.jsonl"
    write_manifest(p, [ManifestRecord("a", "", insert_diacritics(BA, [4]))])
    (s,) = corpus_from_manifest(p)
    assert s.waveform is None
    assert list(s.targets) == [4]
