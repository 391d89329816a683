"""Diacritic labeling, positional re-insertion, ratio filter, vocabulary."""

import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import canonicalize, word_spans_reference

from multidiac import textproc as tp
from multidiac.errors import InvariantViolation, MalformedInputError
from multidiac.textproc import (
    ARABIC_LETTERS, CLASS_MARKS, DAMMA, FATHA, FATHATAN, KASRA, NUM_CLASSES,
    SHADDA, SUKUN, Vocabulary, class_of_marks, diacritization_ratio,
    insert_diacritics, label_from_diacritized, marks_of_class,
    strip_diacritics, word_spans,
)

BA, TA, MEEM, LAM = "ب", "ت", "م", "ل"

letters = st.sampled_from(sorted(ARABIC_LETTERS))
classes = st.integers(0, NUM_CLASSES - 1)


def test_inventory_structure():
    assert len(CLASS_MARKS) == NUM_CLASSES == 15
    assert CLASS_MARKS[0] == ""
    assert len(set(CLASS_MARKS)) == 15
    # classes 9..14 are shadda + the mark of classes 1..3, 5..7
    assert CLASS_MARKS[9] == SHADDA + FATHA
    assert CLASS_MARKS[8] == SHADDA
    for cid in range(9, 15):
        assert CLASS_MARKS[cid][0] == SHADDA and len(CLASS_MARKS[cid]) == 2


def test_mark_codepoint_range():
    marks = sorted(ord(m) for m in tp.DIACRITICS)
    assert marks == list(range(0x064B, 0x0653))


def test_class_of_marks_accepts_both_orders():
    assert class_of_marks(SHADDA + FATHA) == 9
    assert class_of_marks(FATHA + SHADDA) == 9
    assert class_of_marks("") == 0
    assert class_of_marks(SUKUN) == 4


def test_class_of_marks_rejects_bad_combos():
    with pytest.raises(MalformedInputError):
        class_of_marks(FATHA + DAMMA)
    with pytest.raises(MalformedInputError):
        class_of_marks(SHADDA + SHADDA)
    with pytest.raises(MalformedInputError):
        class_of_marks(SHADDA + SUKUN)


def test_marks_of_class_range():
    with pytest.raises(MalformedInputError):
        marks_of_class(15)
    with pytest.raises(MalformedInputError):
        marks_of_class(-1)


def test_label_simple_word():
    text = BA + FATHA + TA + DAMMA
    lab = label_from_diacritized(text)
    assert lab.raw == BA + TA
    assert lab.labels == [1, 2]
    assert lab.letter_positions == [0, 1]
    assert lab.word_boundaries == [(0, 2)]


def test_label_unmarked_letters_are_class_zero():
    lab = label_from_diacritized(BA + TA + FATHA)
    assert lab.labels == [0, 1]


def test_label_stray_leading_mark_rejected():
    with pytest.raises(MalformedInputError) as e:
        label_from_diacritized(FATHA + BA)
    assert e.value.offset == 0


def test_label_mark_after_space_rejected():
    with pytest.raises(MalformedInputError):
        label_from_diacritized(BA + " " + FATHA)


def test_label_mark_on_non_arabic_rejected():
    with pytest.raises(MalformedInputError):
        label_from_diacritized("x" + FATHA)


def test_non_arabic_passthrough():
    text = BA + KASRA + " 123, " + MEEM
    lab = label_from_diacritized(text)
    assert lab.raw == BA + " 123, " + MEEM
    assert lab.labels == [3, 0]
    # the number-only token is not a word
    assert lab.word_boundaries == [(0, 1), (7, 8)]


def test_insert_round_trip_canonical_order():
    raw = BA + TA + " " + MEEM
    out = insert_diacritics(raw, [9, 0, 4])
    assert strip_diacritics(out) == raw
    assert out == BA + SHADDA + FATHA + TA + " " + MEEM + SUKUN
    relabeled = label_from_diacritized(out)
    assert relabeled.labels == [9, 0, 4]


def test_insert_count_mismatch():
    with pytest.raises(InvariantViolation) as e:
        insert_diacritics(BA + TA, [1])
    assert e.value.invariant == 2


def test_canonicalize_reorders_marks():
    messy = BA + FATHA + SHADDA
    assert canonicalize(messy) == BA + SHADDA + FATHA


def test_normalize_is_nfc():
    s = "é"
    assert tp.normalize(s) == unicodedata.normalize("NFC", s)


def test_word_spans_whitespace_and_arabic_only():
    raw = f"  {BA}{TA}  abc {MEEM} "
    assert word_spans(raw) == [(2, 4), (10, 11)]
    assert word_spans("abc 123") == []


def test_case_ending_positions():
    lab = label_from_diacritized(BA + TA + " " + MEEM + LAM + BA)
    # letter index 1 ends word one, letter index 4 ends word two
    assert lab.case_ending_positions() == {1, 4}
    assert lab.letter_words == [0, 0, 1, 1, 1]


def test_diacritization_ratio():
    assert diacritization_ratio(BA + FATHA + TA) == 0.5
    assert diacritization_ratio(BA + SHADDA + FATHA + TA) == 0.5
    assert diacritization_ratio(BA + TA) == 0.0
    assert diacritization_ratio("abc") == 0.0
    assert diacritization_ratio(BA + FATHA) == 1.0


def test_vocabulary_reserved_ids_and_order():
    v = Vocabulary.from_texts([TA + BA + FATHA])
    assert (Vocabulary.PAD, Vocabulary.UNK, Vocabulary.PREFIX) == (0, 1, 2)
    assert v.chars == "".join(sorted({BA, TA}))
    assert len(v) == 5
    assert v.id_of(BA) == 3
    assert v.id_of("z") == Vocabulary.UNK


def test_vocabulary_serialize_round_trip():
    v = Vocabulary.from_texts([BA + TA + MEEM])
    w = Vocabulary.deserialize(v.serialize())
    assert w.chars == v.chars
    assert all(w.id_of(c) == v.id_of(c) for c in v.chars)


def test_vocabulary_with_a_newline_is_refused():
    # checkpoint metadata holds the vocabulary on one "\n"-terminated line
    with pytest.raises(MalformedInputError, match="newline"):
        Vocabulary(BA + "\n" + TA)


# -- properties ----------------------------------------------------------


# characters str.isspace() counts as whitespace beyond ASCII: a file
# separator, NEL, NBSP, the line separator and the ideographic space
ODD_SPACES = ["\x1c", "\x85", "\xa0", "\u2028", "\u3000"]


@st.composite
def raw_texts(draw, others=(" ", ".", "x", "1")):
    parts = draw(st.lists(
        st.one_of(letters, st.sampled_from(list(others))),
        min_size=1, max_size=20))
    return "".join(parts)


@given(raw_texts(), st.data())
@settings(max_examples=200, deadline=None)
def test_insert_then_label_round_trip(raw, data):
    n = sum(c in ARABIC_LETTERS for c in raw)
    labels = data.draw(st.lists(classes, min_size=n, max_size=n))
    text = insert_diacritics(raw, labels)
    assert strip_diacritics(text) == raw
    lab = label_from_diacritized(text)
    assert lab.raw == raw
    assert lab.labels == labels


@given(raw_texts(), st.data())
@settings(max_examples=200, deadline=None)
def test_letter_words_agree_with_word_boundaries(raw, data):
    n = sum(c in ARABIC_LETTERS for c in raw)
    labels = data.draw(st.lists(classes, min_size=n, max_size=n))
    lab = label_from_diacritized(insert_diacritics(raw, labels))
    spans = lab.word_boundaries
    assert len(lab.letter_words) == len(lab.letter_positions)
    for pos, w in zip(lab.letter_positions, lab.letter_words):
        assert spans[w][0] <= pos < spans[w][1]
    # every word span holds a letter; a case ending is a span's last letter
    assert sorted(set(lab.letter_words)) == list(range(len(spans)))
    assert lab.case_ending_positions() == {
        max(i for i, pos in enumerate(lab.letter_positions) if start <= pos < end)
        for start, end in spans}


@given(raw_texts(others=[" ", ".", "x", "1"] + ODD_SPACES), st.data())
@settings(max_examples=100, deadline=None)
def test_ratio_counts_marked_letters(raw, data):
    n = sum(c in ARABIC_LETTERS for c in raw)
    labels = data.draw(st.lists(classes, min_size=n, max_size=n))
    # stray marks, at the start and after non-letters, mark no letter
    strays = iter(data.draw(st.lists(
        st.sampled_from(["", FATHA, SHADDA + KASRA, SUKUN]),
        min_size=len(raw) - n + 1, max_size=len(raw) - n + 1)))
    text = next(strays) + "".join(
        c if c in ARABIC_LETTERS or c in tp.DIACRITICS else c + next(strays)
        for c in insert_diacritics(raw, labels))
    want = 0.0 if n == 0 else sum(1 for c in labels if c != 0) / n
    assert diacritization_ratio(text) == pytest.approx(want)


@given(st.text(st.sampled_from(
    sorted(ARABIC_LETTERS)[:4] + [FATHA, " ", "\t", "\n", "x"] + ODD_SPACES),
    max_size=30) | st.text(max_size=30))
@settings(max_examples=300, deadline=None)
def test_word_spans_match_an_isspace_scan(raw):
    assert word_spans(raw) == word_spans_reference(raw)


@given(st.text(max_size=40))
@settings(max_examples=100, deadline=None)
def test_strip_is_idempotent(s):
    assert strip_diacritics(strip_diacritics(s)) == strip_diacritics(s)
