"""Corpus ingestion, the diacritization-ratio training filter, and the
synthetic desk-scale corpus generator.

Synthetic samples draw words from the module's ALPHABET with uniform
diacritic classes per letter; the audio, float32 samples at SAMPLE_RATE, is
a sequence of TONE_MS pure tones, one per letter, at TONE_HZ[class]. The
text alone therefore carries no label information (1/15 prior) while the
audio fully determines the labels, which makes the audio-contribution claim
testable at desk scale. A SynthSpec sets only the corpus's shape, noise and
split; the alphabet, tones and tone length are these constants.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .audiofe import SAMPLE_RATE, load_wav, save_wav
from .errors import MalformedInputError, ManifestError
from .numerics import RngStream
from .textproc import (NUM_CLASSES, diacritization_ratio, insert_diacritics,
                       label_from_diacritized, normalize)
from .training import CorpusSample

RATIO_THRESHOLD = 0.6


@dataclass(frozen=True)
class ManifestRecord:
    id: str
    audio: str  # relative path; empty for text-only records
    text: str


def load_manifest(path, check_audio: bool = True) -> list[ManifestRecord]:
    """Line-delimited JSON records with fields id/audio/text."""
    records = []
    seen = set()
    base = os.path.dirname(os.path.abspath(path))
    with open(path, encoding="utf-8") as f:
        try:
            lines = f.readlines()
        except UnicodeDecodeError as e:
            raise ManifestError(f"{path}: not UTF-8 text ({e.reason})") from None
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as e:
                raise ManifestError(f"{path}:{lineno}: malformed record: {e}") \
                    from None
            if not isinstance(obj, dict):
                raise ManifestError(f"{path}:{lineno}: record is not an object")
            for key in ("id", "audio", "text"):
                if key not in obj:
                    raise ManifestError(f"{path}:{lineno}: missing field {key!r}")
                if not isinstance(obj[key], str):
                    raise ManifestError(f"{path}:{lineno}: field {key!r} must be "
                                        f"a string, got {type(obj[key]).__name__}")
                try:  # a lone surrogate escape such as "\ud800" has no UTF-8
                    obj[key].encode("utf-8")
                except UnicodeEncodeError as e:
                    raise ManifestError(f"{path}:{lineno}: field {key!r} is not "
                                        f"UTF-8 text ({e.reason})") from None
            if obj["id"] in seen:
                raise ManifestError(f"{path}:{lineno}: duplicate id {obj['id']!r}")
            seen.add(obj["id"])
            if check_audio and obj["audio"] and \
                    not os.path.exists(os.path.join(base, obj["audio"])):
                raise ManifestError(f"{path}:{lineno}: audio file "
                                    f"{obj['audio']!r} not found")
            records.append(ManifestRecord(id=obj["id"], audio=obj["audio"],
                                          text=normalize(obj["text"])))
    return records


def write_manifest(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps({"id": r.id, "audio": r.audio, "text": r.text},
                               ensure_ascii=False) + "\n")


def filter_corpus(records, threshold: float = RATIO_THRESHOLD):
    """Keep records whose diacritization ratio is >= threshold ("below 0.6"
    is filtered, the boundary is kept). Returns (kept, drop_report)."""
    kept = []
    dropped = []
    for r in records:
        ratio = diacritization_ratio(r.text)
        if ratio < threshold:
            dropped.append({"id": r.id, "ratio": ratio})
        else:
            kept.append(r)
    return kept, dropped


def corpus_from_manifest(path, records=None) -> list[CorpusSample]:
    """Turn gold manifest records into training samples (loads audio)."""
    if records is None:
        records = load_manifest(path)
    base = os.path.dirname(os.path.abspath(path))
    samples = []
    for r in records:
        try:
            labeled = label_from_diacritized(r.text)
        except MalformedInputError as e:
            raise MalformedInputError(f"{path}: record {r.id!r}: {e}", e.offset) from None
        wav = load_wav(os.path.join(base, r.audio)) if r.audio else None
        samples.append(CorpusSample(
            sample_id=r.id, raw=labeled.raw,
            targets=np.asarray(labeled.labels, dtype=np.int64),
            waveform=wav))
    return samples


# -- synthetic corpus ----------------------------------------------------

ALPHABET = "بتجدرسكم"
TONE_HZ = np.geomspace(300.0, 4200.0, NUM_CLASSES)  # class id -> tone, below Nyquist
TONE_MS = 200.0


@dataclass(frozen=True)
class SynthSpec:
    sample_count: int = 64
    words: tuple[int, int] = (7, 7)          # words per sample (min, max)
    word_length: tuple[int, int] = (5, 5)    # letters per word (min, max)
    noise_floor: float = 0.0
    dev_fraction: float = 0.125

    def __post_init__(self):
        if not 0.0 <= self.noise_floor < np.inf:
            raise ManifestError(f"noise floor {self.noise_floor} must be finite and non-negative")


def desk_synth_spec(sample_count: int = 64, noise_floor: float = 0.01) -> SynthSpec:
    """Short fixed-shape samples that fit the desk model's 2 s frame budget:
    4 words x 2 letters, one 200 ms tone per letter."""
    return SynthSpec(sample_count=sample_count, words=(4, 4),
                     word_length=(2, 2), noise_floor=noise_floor)


def synthesize_sample(spec: SynthSpec, rng: RngStream) -> tuple[str, np.ndarray]:
    """One gold (diacritized text, float32 samples) pair."""
    gen = rng.generator()
    n_words = int(gen.integers(spec.words[0], spec.words[1] + 1))
    raw_words = []
    classes = []
    for _ in range(n_words):
        n_letters = int(gen.integers(spec.word_length[0], spec.word_length[1] + 1))
        letters = gen.choice(list(ALPHABET), size=n_letters)
        raw_words.append("".join(letters))
        classes.extend(int(c) for c in gen.integers(0, NUM_CLASSES, size=n_letters))
    raw = " ".join(raw_words)
    gold = insert_diacritics(raw, classes)

    n_tone = int(round(TONE_MS * SAMPLE_RATE / 1000.0))
    t = np.arange(n_tone) / SAMPLE_RATE
    pieces = [0.3 * np.sin(2 * np.pi * TONE_HZ[c] * t) for c in classes]
    samples = np.concatenate(pieces)
    if spec.noise_floor > 0:
        samples = samples + gen.normal(0.0, spec.noise_floor, size=len(samples))
    return gold, samples.astype(np.float32)


def synthesize_corpus(spec: SynthSpec, rng: RngStream, out_dir):
    """Write WAVs plus train/dev gold manifests; deterministic in (spec, seed).

    Returns (train_records, dev_records).
    """
    audio_dir = os.path.join(out_dir, "audio")
    os.makedirs(audio_dir, exist_ok=True)
    records = []
    for i in range(spec.sample_count):
        gold, wav = synthesize_sample(spec, rng.child(i))
        rel = os.path.join("audio", f"sample{i:05d}.wav")
        save_wav(os.path.join(out_dir, rel), wav)
        records.append(ManifestRecord(id=f"sample{i:05d}", audio=rel, text=gold))
    n_dev = max(1, int(round(spec.sample_count * spec.dev_fraction)))
    dev, train = records[:n_dev], records[n_dev:]
    write_manifest(os.path.join(out_dir, "train.jsonl"), train)
    write_manifest(os.path.join(out_dir, "dev.jsonl"), dev)
    return train, dev
