"""Arabic text handling: diacritic stripping, 15-class labeling, positional
re-insertion, the training-data ratio filter, and vocabulary encoding.

A labeled text is its undiacritized characters and one class per Arabic
letter, in order; words and case endings are the scorer's to find.

The label inventory is the 15-class scheme used by character-level Arabic
diacritizers: class 0 is "no diacritic", classes 1-7 the seven single marks,
class 8 shadda alone, and 9-14 shadda composed with each vowel/tanween mark.
Shadda is canonically emitted before its vowel; both orders are accepted on
input since real corpora mix them.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

from .errors import InvariantViolation, MalformedInputError

# Combining marks U+064B..U+0652
FATHATAN = "ً"
DAMMATAN = "ٌ"
KASRATAN = "ٍ"
FATHA = "َ"
DAMMA = "ُ"
KASRA = "ِ"
SHADDA = "ّ"
SUKUN = "ْ"

DIACRITICS = frozenset(
    [FATHATAN, DAMMATAN, KASRATAN, FATHA, DAMMA, KASRA, SHADDA, SUKUN]
)

# Arabic letters (hamza forms through yeh); dagger alif, tatweel and
# superscript marks deliberately excluded -- they pass through unlabeled.
ARABIC_LETTERS = frozenset(
    chr(c) for c in range(0x0621, 0x063B)
) | frozenset(chr(c) for c in range(0x0641, 0x064B))

NUM_CLASSES = 15

# class id -> canonical mark sequence (shadda first)
CLASS_MARKS: tuple[str, ...] = (
    "",
    FATHA,
    DAMMA,
    KASRA,
    SUKUN,
    FATHATAN,
    DAMMATAN,
    KASRATAN,
    SHADDA,
    SHADDA + FATHA,
    SHADDA + DAMMA,
    SHADDA + KASRA,
    SHADDA + FATHATAN,
    SHADDA + DAMMATAN,
    SHADDA + KASRATAN,
)

_MARKS_TO_CLASS = {marks: cid for cid, marks in enumerate(CLASS_MARKS)}


def class_of_marks(marks: str, offset: int | None = None) -> int:
    """Map a run of combining marks (any order) to its class id."""
    # shadda first: a second shadda or a second other mark is in no class
    canonical = SHADDA * marks.count(SHADDA) + "".join(m for m in marks if m != SHADDA)
    if canonical not in _MARKS_TO_CLASS:
        raise MalformedInputError(
            f"mark combination {[hex(ord(m)) for m in marks]} outside the "
            f"15-class inventory", offset=offset)
    return _MARKS_TO_CLASS[canonical]


def marks_of_class(class_id: int) -> str:
    if not 0 <= class_id < NUM_CLASSES:
        raise MalformedInputError(f"class id {class_id} outside 0..14")
    return CLASS_MARKS[class_id]


@dataclass
class LabeledText:
    """Undiacritized text plus the class label of each of its Arabic letters."""

    raw: str
    labels: list[int]


def normalize(text: str) -> str:
    """NFC ingest normalization (external text only; internal strings are
    kept in the canonical shadda-first mark order, which NFC would undo)."""
    return unicodedata.normalize("NFC", text)


def strip_diacritics(text: str) -> str:
    """Remove exactly the eight mark codepoints U+064B-U+0652."""
    return "".join(c for c in text if c not in DIACRITICS)


def letter_indices(raw: str) -> list[int]:
    """Offsets of the Arabic letters of raw: the characters that carry a class."""
    return [i for i, c in enumerate(raw) if c in ARABIC_LETTERS]


def label_from_diacritized(text: str) -> LabeledText:
    """Parse diacritized text into raw characters + per-letter class labels."""
    raw_chars: list[str] = []
    labels: list[int] = []
    current_marks: str | None = None  # collecting for the most recent letter
    current_offset: int | None = None

    for i, c in enumerate(text):
        if c in DIACRITICS:
            if current_marks is None:
                raise MalformedInputError(
                    f"diacritic at offset {i} has no preceding Arabic letter",
                    offset=i)
            if current_offset is None:
                current_offset = i
            current_marks += c
            continue
        if current_marks is not None:
            labels.append(class_of_marks(current_marks, offset=current_offset))
        current_marks = "" if c in ARABIC_LETTERS else None
        current_offset = None
        raw_chars.append(c)
    if current_marks is not None:
        labels.append(class_of_marks(current_marks, offset=current_offset))

    return LabeledText(raw="".join(raw_chars), labels=labels)


def insert_diacritics(raw: str, predictions: list[int]) -> str:
    """Emit raw text with each letter followed by its predicted class's marks.

    Verifies the three positional invariants and raises InvariantViolation
    on any failure: (1) stripping the output recovers raw; (2) diacritic
    count matches predictions; (3) all letter positions are consumed.
    """
    n_letters = len(letter_indices(raw))
    if len(predictions) != n_letters:
        raise InvariantViolation(
            2, f"diacritic count {len(predictions)} does not match "
               f"{n_letters} letter positions")

    out = []
    consumed = 0
    pred_iter = iter(predictions)
    for i, c in enumerate(raw):
        out.append(c)
        if c in ARABIC_LETTERS:
            out.append(marks_of_class(next(pred_iter)))
            consumed += 1
    result = "".join(out)

    if consumed != n_letters:
        raise InvariantViolation(
            3, f"only {consumed} of {n_letters} letter positions consumed")
    if strip_diacritics(result) != raw:
        raise InvariantViolation(1, "stripping the output does not recover the input")
    return result


def diacritization_ratio(text: str) -> float:
    """(Arabic letters bearing >=1 mark) / (total Arabic letters); 0 if none."""
    total = sum(c in ARABIC_LETTERS for c in text)
    if total == 0:
        return 0.0
    # a letter bears a mark when a mark follows it
    return sum(a in ARABIC_LETTERS and b in DIACRITICS
               for a, b in zip(text, text[1:])) / total


@dataclass
class Vocabulary:
    """Character -> token id map with reserved padding/unknown/prefix ids."""

    PAD = 0
    UNK = 1
    PREFIX = 2
    _RESERVED = 3

    chars: str = ""

    def __post_init__(self):
        # stable order: sorted unique characters
        self.chars = "".join(sorted(set(self.chars)))
        if "\n" in self.chars:
            # checkpoint metadata is one key=value line per entry
            raise MalformedInputError("a vocabulary cannot hold a newline")
        self._index = {c: i + self._RESERVED for i, c in enumerate(self.chars)}

    @classmethod
    def from_texts(cls, texts) -> "Vocabulary":
        charset = set()
        for t in texts:
            charset.update(strip_diacritics(t))
        return cls("".join(charset))

    def __len__(self):
        return self._RESERVED + len(self.chars)

    def id_of(self, char: str) -> int:
        return self._index.get(char, self.UNK)
