"""Manifests, the ratio filter, and the synthetic tone corpus."""

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidiac.audiofe import SAMPLE_RATE, load_wav
from multidiac.data import (
    RATIO_THRESHOLD, TONE_HZ, TONE_MS, ManifestRecord, SynthSpec, corpus_from_manifest,
    desk_synth_spec, filter_corpus, load_manifest,
    synthesize_corpus, synthesize_sample, write_manifest,
)
from multidiac.errors import MalformedInputError, ManifestError
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


@pytest.mark.parametrize("key", ["id", "audio", "text"])
def test_manifest_rejects_a_lone_surrogate_escape(tmp_path, key):
    # json.dumps writes the lone surrogate as the escape \ud800; the record
    # would load, and the run fail at its first UTF-8 write
    rec = {"id": "a", "audio": "", "text": BA}
    rec[key] = "x\ud800"
    p = tmp_path / "m.jsonl"
    p.write_text(json.dumps(rec) + "\n")
    assert "\\ud800" in p.read_text()
    with pytest.raises(ManifestError, match=f"'{key}' is not UTF-8"):
        load_manifest(p, check_audio=False)


def test_manifest_loads_an_escaped_surrogate_pair(tmp_path):
    p = tmp_path / "m.jsonl"
    p.write_text('{"id": "\\ud83d\\ude00", "audio": "", "text": "x"}\n')
    assert load_manifest(p)[0].id == "\U0001F600"


@pytest.mark.parametrize("line", ["[" * 100_000 + "]" * 100_000, "1" * 5000])
def test_manifest_rejects_what_json_cannot_parse(tmp_path, line):
    # nesting past the recursion limit, an integer past Python's digit limit
    p = tmp_path / "m.jsonl"
    p.write_text('{"id": "a", "audio": "", "text": "x"}\n' + line + "\n")
    with pytest.raises(ManifestError, match=":2: malformed record"):
        load_manifest(p)


# pieces spliced into a valid manifest: escapes that are or are not UTF-16
# pairs, JSON structure, nesting past the recursion limit, a long integer,
# bytes that are not UTF-8
MANIFEST_PIECES = [b"\\ud800", b"\\udfff", b"\\ude00\\ud83d", b"\\ud83d\\ude00",
                   b"\\ud83d", b"\\u0628", b"\\", b'"', b"{", b"}", b"[", b"]",
                   b",", b":", b"null", b"\n", b"[" * 5000, b"7" * 5000,
                   b"\xff", b"\xc3", b"\xed\xa0\x80", "\u064e".encode()]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_manifest_loads_or_raises_manifest_error(tmp_path_factory, data):
    blob = bytearray("".join(
        json.dumps({"id": f"r{i}", "audio": "", "text": BA + FATHA + TA},
                   ensure_ascii=False) + "\n" for i in range(2)).encode())
    # splice at a string's first byte, or anywhere; then overwrite bytes
    starts = [i + 1 for i, b in enumerate(blob) if b == ord('"')]
    where = st.one_of(st.sampled_from(starts), st.integers(0, len(blob)))
    for pos, piece in data.draw(st.lists(st.tuples(
            where, st.one_of(st.sampled_from(MANIFEST_PIECES),
                             st.binary(min_size=1, max_size=3))),
            min_size=1, max_size=3)):
        blob[pos:pos] = piece
    for pos, value in data.draw(st.lists(st.tuples(
            st.integers(0, len(blob) - 1), st.integers(0, 255)), max_size=2)):
        blob[pos] = value
    path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
    path.write_bytes(bytes(blob))
    try:
        records = load_manifest(path)
    except ManifestError:
        return
    for r in records:
        for value in (r.id, r.audio, r.text):
            assert isinstance(value, str)
            value.encode("utf-8")


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
    tones = TONE_HZ
    assert len(tones) == NUM_CLASSES
    assert len(set(tones)) == NUM_CLASSES
    assert tones[0] == pytest.approx(300.0)
    assert tones[-1] == pytest.approx(4200.0)
    assert (np.diff(tones) > 0).all()
    assert tones[-1] < SAMPLE_RATE / 2


def test_synth_spec_validation():
    # the alphabet, tones and tone length are module constants, not settings
    assert [f.name for f in dataclasses.fields(SynthSpec)] == [
        "sample_count", "words", "word_length", "noise_floor", "dev_fraction"]
    for noise_floor in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ManifestError, match="noise floor"):
            SynthSpec(noise_floor=noise_floor)


def test_desk_shape_fits_frame_budget():
    spec = desk_synth_spec()
    # 4 words x 2 letters x 200 ms = 1.6 s of tones, within the 2 s budget
    max_letters = spec.words[1] * spec.word_length[1]
    assert max_letters * TONE_MS <= 2000.0
    assert max_letters <= 10  # one pooled prefix slot per letter


def test_synthesize_sample_structure():
    spec = desk_synth_spec()
    gold, wav = synthesize_sample(spec, RngStream(3))
    lab = label_from_diacritized(gold)
    n_letters = len(lab.labels)
    assert len(lab.raw.split()) == 4
    assert n_letters == 8
    want = int(round(n_letters * TONE_MS * SAMPLE_RATE / 1000))
    assert wav.dtype == np.float32 and len(wav) == want
    assert np.abs(wav).max() <= 0.4


def test_synthesize_sample_tone_encodes_class():
    spec = desk_synth_spec(noise_floor=0.0)
    gold, wav = synthesize_sample(spec, RngStream(5))
    lab = label_from_diacritized(gold)
    n_tone = int(round(TONE_MS * SAMPLE_RATE / 1000))
    for k, cls in enumerate(lab.labels):
        seg = wav[k * n_tone:(k + 1) * n_tone].astype(np.float64)
        spectrum = np.abs(np.fft.rfft(seg))
        freq = np.fft.rfftfreq(len(seg), 1 / SAMPLE_RATE)[spectrum.argmax()]
        assert abs(freq - TONE_HZ[cls]) < 10.0


def test_synthesize_deterministic():
    spec = desk_synth_spec(noise_floor=0.01)
    a = synthesize_sample(spec, RngStream(9))
    b = synthesize_sample(spec, RngStream(9))
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])
    c = synthesize_sample(spec, RngStream(10))
    assert a[0] != c[0] or not np.array_equal(a[1], c[1])


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


def test_corpus_from_manifest_names_the_record_with_a_stray_mark(tmp_path):
    p = tmp_path / "m.jsonl"
    write_manifest(p, [ManifestRecord("a", "", insert_diacritics(BA, [4])),
                       ManifestRecord("b", "", BA + " " + FATHA)])
    with pytest.raises(MalformedInputError) as e:
        corpus_from_manifest(p)
    assert str(e.value) == (f"{p}: record 'b': diacritic at offset 2 has no "
                            f"preceding Arabic letter")
    assert e.value.offset == 2
