"""DER/WER/SER scoring with case-ending and no-diacritic flags.

A word is a whitespace-delimited token of the gold text holding an Arabic
letter, and its last letter is its case ending. A letter position errs when
its predicted class differs from gold; a word errs when any counted position
in it errs; a sentence errs when any word errs. The primary setting,
`MetricFlags()`, counts case endings and no-diacritic positions, and corpus
scores are micro-averaged: a corpus's `Tallies` is the sum of its
sentences'.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from itertools import islice

from .errors import AlignmentError, MalformedInputError, ManifestError
from .textproc import ARABIC_LETTERS, label_from_diacritized


@dataclass(frozen=True)
class MetricFlags:
    include_case_endings: bool = True
    include_no_diacritic: bool = True


@dataclass
class Tallies:
    positions: int = 0
    position_errors: int = 0
    words: int = 0
    word_errors: int = 0
    sentences: int = 0
    sentence_errors: int = 0

    def __add__(self, other: "Tallies") -> "Tallies":
        return Tallies(*(a + b for a, b in zip(astuple(self), astuple(other))))

    @property
    def der(self) -> float:
        return self.position_errors / self.positions if self.positions else 0.0

    @property
    def wer(self) -> float:
        return self.word_errors / self.words if self.words else 0.0

    @property
    def ser(self) -> float:
        return self.sentence_errors / self.sentences if self.sentences else 0.0

    def as_lines(self) -> str:
        return (f"der={self.der:.4f}\nwer={self.wer:.4f}\nser={self.ser:.4f}\n"
                f"positions={self.positions}\nwords={self.words}\n"
                f"sentences={self.sentences}\n")


def score_pair(pred: str, gold: str, flags: MetricFlags = MetricFlags()) -> Tallies:
    """Per-sentence tallies for one (prediction, gold) pair. A malformed
    text's MalformedInputError names its side, "prediction" or "gold"."""
    labeled = []
    for side, text in (("prediction", pred), ("gold", gold)):
        try:
            labeled.append(label_from_diacritized(text))
        except MalformedInputError as e:
            raise MalformedInputError(f"{side}: {e}", e.offset) from None
    pl, gl = labeled
    if pl.raw != gl.raw:
        first = next((i for i, (a, b) in enumerate(zip(pl.raw, gl.raw)) if a != b),
                     min(len(pl.raw), len(gl.raw)))
        raise AlignmentError(f"base text mismatch at offset {first}")

    t = Tallies(sentences=1)
    pairs = zip(pl.labels, gl.labels)  # (pred, gold) per letter, in text order
    for token in gl.raw.split():
        word = list(islice(pairs, sum(c in ARABIC_LETTERS for c in token)))
        if not word:  # a token with no Arabic letter is not a word
            continue
        if not flags.include_case_endings:
            word.pop()
        counted = [p != g for p, g in word if flags.include_no_diacritic or g]
        t.words += 1
        t.positions += len(counted)
        t.position_errors += sum(counted)
        t.word_errors += any(counted)
    t.sentence_errors = int(t.word_errors > 0)
    return t


def evaluate_corpus(pred_by_id: dict[str, str], gold_by_id: dict[str, str],
                    flags: MetricFlags = MetricFlags()) -> Tallies:
    """Micro-averaged corpus tallies; ids must align exactly."""
    missing = sorted(set(gold_by_id) - set(pred_by_id))
    extra = sorted(set(pred_by_id) - set(gold_by_id))
    if missing or extra:
        raise ManifestError(f"manifest id mismatch: missing={missing} "
                            f"extra={extra}")
    total = Tallies()
    for sid in sorted(gold_by_id):
        try:
            total += score_pair(pred_by_id[sid], gold_by_id[sid], flags)
        except (AlignmentError, MalformedInputError) as e:
            e.args = (f"sample {sid!r}: {e}",)  # type and offset kept
            raise
    return total
