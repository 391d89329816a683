"""Diacritic labeling, positional re-insertion, ratio filter, vocabulary,
and the words and case endings the scorer finds in labeled text."""

import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ODD_SPACES, canonicalize

from multidiac import textproc as tp
from multidiac.errors import InvariantViolation, MalformedInputError
from multidiac.metrics import MetricFlags, score_pair
from multidiac.textproc import (
    ARABIC_LETTERS, CLASS_MARKS, DAMMA, FATHA, FATHATAN, KASRA, NUM_CLASSES,
    SHADDA, SUKUN, Vocabulary, class_of_marks, diacritization_ratio,
    insert_diacritics, label_from_diacritized, marks_of_class,
    strip_diacritics,
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
    # a word is a whitespace-delimited token holding an Arabic letter: the
    # number-only and Latin tokens are not words
    raw = f"  {BA}{TA}  abc {MEEM} 123, "
    gold = insert_diacritics(raw, [1, 2, 3])
    assert score_pair(gold, gold).words == 2
    assert score_pair("abc 123", "abc 123").words == 0


def test_case_ending_positions():
    raw = BA + TA + " " + MEEM + LAM + BA
    gold = insert_diacritics(raw, [1, 1, 1, 1, 1])
    # letter index 1 ends word one, letter index 4 ends word two: errors
    # there alone are not counted without case endings
    pred = insert_diacritics(raw, [1, 2, 1, 1, 2])
    t = score_pair(pred, gold, MetricFlags(include_case_endings=False))
    assert (t.positions, t.position_errors, t.word_errors) == (3, 0, 0)
    pred = insert_diacritics(raw, [1, 1, 1, 2, 1])
    t = score_pair(pred, gold, MetricFlags(include_case_endings=False))
    assert (t.positions, t.position_errors, t.word_errors) == (3, 1, 1)


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
    w = Vocabulary(v.chars)
    assert w.chars == v.chars
    assert all(w.id_of(c) == v.id_of(c) for c in v.chars)


def test_vocabulary_with_a_newline_is_refused():
    # checkpoint metadata holds the vocabulary on one "\n"-terminated line
    with pytest.raises(MalformedInputError, match="newline"):
        Vocabulary(BA + "\n" + TA)


# -- properties ----------------------------------------------------------


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


@given(st.text(max_size=40))
@settings(max_examples=100, deadline=None)
def test_strip_is_idempotent(s):
    assert strip_diacritics(strip_diacritics(s)) == strip_diacritics(s)
