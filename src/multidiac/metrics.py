"""DER/WER/SER scoring with case-ending and no-diacritic flags.

A letter position errs when its predicted class differs from gold; a word
errs when any counted position in it errs; a sentence errs when any word
errs. The primary setting counts case endings and no-diacritic positions
(both flags true) and all corpus scores are micro-averaged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ManifestError
from .textproc import label_from_diacritized

class AlignmentError(ValueError):
    """Prediction and gold disagree on the underlying (stripped) text."""


@dataclass(frozen=True)
class MetricFlags:
    include_case_endings: bool = True
    include_no_diacritic: bool = True


PRIMARY_FLAGS = MetricFlags(True, True)


@dataclass
class Tallies:
    positions: int = 0
    position_errors: int = 0
    words: int = 0
    word_errors: int = 0
    sentences: int = 0
    sentence_errors: int = 0

    def merge(self, other: "Tallies") -> "Tallies":
        return Tallies(*(getattr(self, f) + getattr(other, f)
                         for f in ("positions", "position_errors", "words",
                                   "word_errors", "sentences", "sentence_errors")))


@dataclass
class ScoreReport:
    der: float
    wer: float
    ser: float
    positions: int
    words: int
    sentences: int

    def as_lines(self) -> str:
        return (f"der={self.der:.4f}\nwer={self.wer:.4f}\nser={self.ser:.4f}\n"
                f"positions={self.positions}\nwords={self.words}\n"
                f"sentences={self.sentences}\n")


def score_pair(pred: str, gold: str, flags: MetricFlags = PRIMARY_FLAGS) -> Tallies:
    """Per-sentence tallies for one (prediction, gold) pair."""
    pl = label_from_diacritized(pred)
    gl = label_from_diacritized(gold)
    if pl.raw != gl.raw:
        first = next((i for i, (a, b) in enumerate(zip(pl.raw, gl.raw)) if a != b),
                     min(len(pl.raw), len(gl.raw)))
        raise AlignmentError(f"base text mismatch at offset {first}")

    case_endings = gl.case_ending_positions()
    word_of = gl.letter_words
    t = Tallies(sentences=1, words=len(gl.word_boundaries))
    word_err = [False] * len(gl.word_boundaries)
    for li, (pc, gc) in enumerate(zip(pl.labels, gl.labels)):
        if not flags.include_case_endings and li in case_endings:
            continue
        if not flags.include_no_diacritic and gc == 0:
            continue
        t.positions += 1
        if pc != gc:
            t.position_errors += 1
            word_err[word_of[li]] = True
    t.word_errors = sum(word_err)
    t.sentence_errors = 1 if t.word_errors > 0 else 0
    return t


def report_from_tallies(t: Tallies) -> ScoreReport:
    return ScoreReport(
        der=t.position_errors / t.positions if t.positions else 0.0,
        wer=t.word_errors / t.words if t.words else 0.0,
        ser=t.sentence_errors / t.sentences if t.sentences else 0.0,
        positions=t.positions, words=t.words, sentences=t.sentences)


def evaluate_corpus(pred_by_id: dict[str, str], gold_by_id: dict[str, str],
                    flags: MetricFlags = PRIMARY_FLAGS) -> ScoreReport:
    """Micro-averaged corpus scores; ids must align exactly."""
    missing = sorted(set(gold_by_id) - set(pred_by_id))
    extra = sorted(set(pred_by_id) - set(gold_by_id))
    if missing or extra:
        raise ManifestError(f"manifest id mismatch: missing={missing} "
                            f"extra={extra}")
    total = Tallies()
    for sid in sorted(gold_by_id):
        total = total.merge(score_pair(pred_by_id[sid], gold_by_id[sid], flags))
    return report_from_tallies(total)
