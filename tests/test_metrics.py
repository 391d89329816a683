"""DER/WER/SER scoring against a brute-force oracle and worked examples."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidiac.errors import MalformedInputError, ManifestError
from multidiac.metrics import (
    AlignmentError, MetricFlags, Tallies, evaluate_corpus, score_pair,
)
from multidiac.textproc import (ARABIC_LETTERS, FATHA, NUM_CLASSES,
                                insert_diacritics)
from oracles import ODD_SPACES, brute_force_reference

BA, TA, MEEM = "ب", "ت", "م"
ALL_FLAGS = [MetricFlags(a, b) for a in (True, False) for b in (True, False)]


def diacritized(raw, labels):
    return insert_diacritics(raw, labels)


def test_perfect_prediction():
    gold = diacritized(BA + TA + " " + MEEM, [1, 2, 3])
    t = score_pair(gold, gold)
    assert (t.positions, t.position_errors) == (3, 0)
    assert (t.words, t.word_errors) == (2, 0)
    assert (t.sentences, t.sentence_errors) == (1, 0)


def test_worked_example_der_wer_ser():
    # three letters in one word, one wrong: DER 1/3, WER 1, SER 1
    raw = BA + TA + MEEM
    gold = diacritized(raw, [1, 2, 3])
    pred = diacritized(raw, [1, 2, 4])
    r = score_pair(pred, gold)
    assert r.der == pytest.approx(1 / 3)
    assert r.wer == 1.0
    assert r.ser == 1.0


def test_word_error_requires_counted_position():
    # the only error is on a case ending: excluded flags absolve the word
    raw = BA + TA + " " + BA + TA
    gold = diacritized(raw, [1, 2, 3, 4])
    pred = diacritized(raw, [1, 5, 3, 4])  # error on letter 1 = case ending
    strict = score_pair(pred, gold, MetricFlags(True, True))
    assert strict.word_errors == 1
    lenient = score_pair(pred, gold, MetricFlags(False, True))
    assert lenient.word_errors == 0
    assert lenient.positions == 2  # both case endings dropped


def test_no_diacritic_flag_drops_class_zero_gold():
    raw = BA + TA
    gold = diacritized(raw, [0, 2])
    pred = diacritized(raw, [1, 2])
    a = score_pair(pred, gold, MetricFlags(True, True))
    assert (a.positions, a.position_errors) == (2, 1)
    b = score_pair(pred, gold, MetricFlags(True, False))
    assert (b.positions, b.position_errors) == (1, 0)


def test_alignment_error_reports_offset():
    gold = diacritized(BA + TA, [1, 2])
    pred = diacritized(BA + MEEM, [1, 2])
    with pytest.raises(AlignmentError, match="offset 1"):
        score_pair(pred, gold)


def test_tallies_merge():
    a = Tallies(3, 1, 2, 1, 1, 1)
    b = Tallies(5, 0, 3, 0, 1, 0)
    m = a + b
    assert (a, b) == (Tallies(3, 1, 2, 1, 1, 1), Tallies(5, 0, 3, 0, 1, 0))
    assert (m.positions, m.position_errors) == (8, 1)
    assert (m.words, m.word_errors) == (5, 1)
    assert (m.sentences, m.sentence_errors) == (2, 1)


def test_report_handles_empty_tallies():
    r = Tallies()
    assert (r.der, r.wer, r.ser) == (0.0, 0.0, 0.0)


def test_report_as_lines_format():
    lines = Tallies(4, 1, 2, 1, 1, 0).as_lines()
    assert "der=0.2500" in lines and "wer=0.5000" in lines
    assert "positions=4" in lines


def test_evaluate_corpus_micro_average():
    raw1, raw2 = BA + TA, MEEM
    gold = {"a": diacritized(raw1, [1, 2]), "b": diacritized(raw2, [3])}
    pred = {"a": diacritized(raw1, [1, 4]), "b": diacritized(raw2, [3])}
    r = evaluate_corpus(pred, gold)
    assert r.der == pytest.approx(1 / 3)  # 1 error over 3 positions pooled
    assert r.sentences == 2 and r.ser == 0.5
    assert r == score_pair(pred["a"], gold["a"]) + score_pair(pred["b"], gold["b"])


def test_evaluate_corpus_id_mismatch():
    with pytest.raises(ManifestError):
        evaluate_corpus({"a": ""}, {"b": ""})


def test_evaluate_corpus_names_the_sample_that_fails():
    ok = diacritized(BA, [1])
    gold = {"a": ok, "b": diacritized(BA + TA, [1, 2])}
    with pytest.raises(AlignmentError) as e:
        evaluate_corpus({"a": ok, "b": diacritized(MEEM + TA, [1, 2])}, gold)
    assert str(e.value) == "sample 'b': base text mismatch at offset 0"
    with pytest.raises(MalformedInputError) as e:
        evaluate_corpus({"a": ok, "b": " " + FATHA + BA + TA}, gold)
    assert str(e.value) == ("sample 'b': diacritic at offset 1 has no "
                            "preceding Arabic letter")
    assert e.value.offset == 1


# -- oracle equivalence --------------------------------------------------


# str.isspace() characters that can separate tokens
SPACES = [" ", "\t", "\n"] + ODD_SPACES


@st.composite
def sentence_pairs(draw):
    # tokens of letters and of ".", "x" and "1": a token with no letter is
    # not a word
    chars = st.sampled_from(sorted(ARABIC_LETTERS)[:10] + [".", "x", "1"])
    tokens = draw(st.lists(st.text(chars, min_size=1, max_size=4),
                           min_size=1, max_size=4))
    space = st.sampled_from(SPACES)
    gaps = draw(st.lists(st.text(space, min_size=1, max_size=2),
                         min_size=len(tokens) - 1, max_size=len(tokens) - 1))
    raw = (draw(st.text(space, max_size=1)) + tokens[0]
           + "".join(g + t for g, t in zip(gaps, tokens[1:]))
           + draw(st.text(space, max_size=1)))
    n = sum(c in ARABIC_LETTERS for c in raw)
    classes = st.integers(0, NUM_CLASSES - 1)
    gold = draw(st.lists(classes, min_size=n, max_size=n))
    pred = draw(st.lists(classes, min_size=n, max_size=n))
    return diacritized(raw, pred), diacritized(raw, gold)


@given(sentence_pairs(), st.sampled_from(range(4)))
@settings(max_examples=300, deadline=None)
def test_score_pair_matches_brute_force(pair, flag_idx):
    pred, gold = pair
    flags = ALL_FLAGS[flag_idx]
    assert score_pair(pred, gold, flags) == brute_force_reference(pred, gold, flags)


@given(sentence_pairs())
@settings(max_examples=100, deadline=None)
def test_error_hierarchy(pair):
    pred, gold = pair
    t = score_pair(pred, gold)
    assert 0 <= t.position_errors <= t.positions
    assert 0 <= t.word_errors <= t.words
    assert t.sentence_errors == (1 if t.word_errors else 0)
    if t.position_errors == 0:
        assert t.word_errors == 0
