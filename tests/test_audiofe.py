"""WAV ingest, log-mel frontend, SpecAugment, noise injection."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidiac import audiofe as af
from multidiac.audiofe import (
    HOP, N_FFT, SAMPLE_RATE, inject_noise, load_wav,
    log_mel, mel_filterbank, save_wav, spec_augment,
)
from multidiac.errors import ConfigError, FormatError, IngestError
from multidiac.numerics import RngStream
from oracles import filterbank_centers, log_mel_reference


def sine(freq, seconds=0.5, amp=0.3):
    t = np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE
    return (amp * np.sin(2 * np.pi * freq * t)).astype(np.float32)


# -- wav io --------------------------------------------------------------


def test_wav_round_trip(tmp_path):
    w = sine(440)
    p = tmp_path / "a.wav"
    save_wav(p, w)
    back = load_wav(p)
    assert back.dtype == np.float32
    assert len(back) == len(w)
    assert np.abs(back - w).max() < 1.0 / 32767


def test_wav_float32_codec(tmp_path):
    w = sine(200, seconds=0.1)
    data = w.astype("<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 1, SAMPLE_RATE, SAMPLE_RATE * 4, 4, 32)
    p = tmp_path / "f.wav"
    with open(p, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data)) + b"WAVE")
        f.write(b"fmt " + struct.pack("<I", len(fmt)) + fmt)
        f.write(b"data" + struct.pack("<I", len(data)) + data)
    back = load_wav(p)
    assert np.array_equal(back, w)


def test_wav_rejects_wrong_rate(tmp_path):
    p = tmp_path / "r.wav"
    save_wav(p, np.zeros(100, dtype=np.float32))
    blob = bytearray(p.read_bytes())
    assert struct.unpack("<I", blob[24:28]) == (SAMPLE_RATE,)  # the fmt chunk's rate
    blob[24:28] = struct.pack("<I", 8000)
    p.write_bytes(bytes(blob))
    with pytest.raises(IngestError, match="expected 16000 Hz, got 8000 Hz"):
        load_wav(p)


def test_load_wav_holds_the_file_once(tmp_path):
    """Chunk bodies are views of the file's bytes and PCM16 is scaled in
    place: a read peaks at the bytes plus the float32 samples, 3x the file
    (6x when each chunk body was a copy and the scaling a new array)."""
    p = tmp_path / "long.wav"
    w = np.random.default_rng(0).uniform(-0.5, 0.5, 40 * SAMPLE_RATE).astype(np.float32)
    save_wav(p, w)
    size = p.stat().st_size
    assert size >= 1 << 20
    tracemalloc.start()
    try:
        back = load_wav(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * size, peak / size
    pcm = np.frombuffer(p.read_bytes()[44:], dtype="<i2")
    assert back.tobytes() == (pcm.astype(np.float32) / np.float32(32768.0)).tobytes()


def test_wav_rejects_stereo(tmp_path):
    data = np.zeros(100, dtype="<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 2, SAMPLE_RATE, SAMPLE_RATE * 4, 4, 16)
    p = tmp_path / "s.wav"
    with open(p, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE")
        f.write(b"fmt " + struct.pack("<I", len(fmt)) + fmt)
        f.write(b"data" + struct.pack("<I", len(data)) + data)
    with pytest.raises(IngestError):
        load_wav(p)


def test_wav_rejects_garbage(tmp_path):
    p = tmp_path / "g.wav"
    p.write_bytes(b"not a wav at all")
    with pytest.raises(FormatError):
        load_wav(p)


def test_wav_rejects_truncated_data(tmp_path):
    good = tmp_path / "t.wav"
    save_wav(good, sine(100, seconds=0.05))
    blob = good.read_bytes()
    (tmp_path / "cut.wav").write_bytes(blob[:len(blob) - 40])
    with pytest.raises(FormatError):
        load_wav(tmp_path / "cut.wav")


def _wav_bytes(fmt: bytes, data: bytes) -> bytes:
    pad = bytes(len(fmt) & 1)  # odd-sized chunks are padded to even
    return (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt + pad) + 8 + len(data))
            + b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + pad
            + b"data" + struct.pack("<I", len(data)) + data)


PCM16_FMT = struct.pack("<HHIIHH", 1, 1, SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16)
FLOAT32_FMT = struct.pack("<HHIIHH", 3, 1, SAMPLE_RATE, SAMPLE_RATE * 4, 4, 32)


@pytest.mark.parametrize("fmt, data, error", [
    (PCM16_FMT[:8], bytes(200), FormatError),
    (PCM16_FMT[:15], bytes(200), FormatError),
    (PCM16_FMT, bytes(201), FormatError),
    (FLOAT32_FMT, bytes(202), FormatError),
    (FLOAT32_FMT, np.array([0.1, np.nan, 0.2], dtype="<f4").tobytes(), IngestError),
    (FLOAT32_FMT, np.array([0.1, -np.inf], dtype="<f4").tobytes(), IngestError),
], ids=["fmt-8-bytes", "fmt-15-bytes", "pcm16-odd-length", "float32-partial-sample",
        "float32-nan", "float32-inf"])
def test_wav_rejects_malformed_chunks(tmp_path, fmt, data, error):
    p = tmp_path / "m.wav"
    p.write_bytes(_wav_bytes(fmt, data))
    with pytest.raises(error):
        load_wav(p)


@settings(max_examples=300, deadline=None)
@given(fmt=st.sampled_from([PCM16_FMT, FLOAT32_FMT]), data=st.data())
def test_mutated_wav_loads_or_raises_typed_error(tmp_path_factory, fmt, data):
    samples = np.linspace(-0.5, 0.5, 16)
    payload = ((samples * 32767).astype("<i2") if fmt is PCM16_FMT
               else samples.astype("<f4")).tobytes()
    # a well-formed container whose chunk bodies may be cut short: the fmt
    # chunk to 0-16 bytes, the data chunk to any byte length
    fmt = fmt[:data.draw(st.one_of(st.just(16), st.integers(0, 16)))]
    payload = payload[:data.draw(st.one_of(st.just(len(payload)),
                                           st.integers(0, len(payload))))]
    blob = bytearray(_wav_bytes(fmt, payload))
    # (offset, width) of the header fields: the RIFF tag and size, WAVE, the
    # fmt tag and size, the fmt fields present, the data tag and size
    data_at = 20 + len(fmt) + (len(fmt) & 1)
    fields = [(0, 4), (4, 4), (8, 4), (12, 4), (16, 4)] + \
        [(20 + o, w) for o, w in ((0, 2), (2, 2), (4, 4), (8, 4), (12, 2), (14, 2))
         if o + w <= len(fmt)] + [(data_at, 4), (data_at + 4, 4)]
    # whole fields set to a size within the file or to any value, then
    # single bytes at a field's start or inside it, or anywhere
    for (pos, width), value in data.draw(st.lists(st.tuples(
            st.sampled_from(fields),
            st.one_of(st.integers(0, len(blob)), st.integers(0, 2 ** 32 - 1))),
            max_size=2)):
        blob[pos:pos + width] = (value % (1 << 8 * width)).to_bytes(width, "little")
    offsets = [pos for pos, _ in fields]
    where = st.one_of(st.sampled_from(offsets),
                      st.sampled_from(offsets).map(lambda o: o + 1),
                      st.sampled_from(offsets).map(lambda o: o + 3),
                      st.integers(0, len(blob) - 1))
    for pos, value in data.draw(st.lists(st.tuples(where, st.integers(0, 255)),
                                         max_size=3)):
        blob[pos] = value
    cut = data.draw(st.one_of(st.none(), st.integers(0, len(blob))))
    if cut is not None:
        del blob[cut:]
    path = tmp_path_factory.getbasetemp() / "mutated.wav"
    path.write_bytes(bytes(blob))
    try:
        w = load_wav(path)
    except (FormatError, IngestError):
        return
    assert w.dtype == np.float32 and np.all(np.isfinite(w))


# -- filterbank ----------------------------------------------------------


def test_filterbank_shape_and_coverage():
    fb = mel_filterbank(80)
    assert fb.shape == (80, N_FFT // 2 + 1)
    assert (fb >= 0).all()
    # every filter has some mass, centers increase
    assert (fb.sum(axis=1) > 0).all()
    centers = filterbank_centers(80)
    assert len(centers) == 80
    assert (np.diff(centers) > 0).all()
    assert centers[-1] < SAMPLE_RATE / 2


def test_filterbank_is_htk_mel_spaced():
    centers = filterbank_centers(80)
    mels = 2595.0 * np.log10(1.0 + centers / 700.0)
    gaps = np.diff(mels)
    assert np.allclose(gaps, gaps[0], rtol=1e-6)


# -- log-mel -------------------------------------------------------------


def test_log_mel_shape_and_range():
    m = log_mel(sine(440, seconds=1.0), mels=80)
    assert m.shape == (80, math.ceil(SAMPLE_RATE * 1.0 / HOP))
    # (log10 clamp at max-8, then (x+4)/4) bounds the dynamic range to 2
    assert m.max() - m.min() <= 2.0 + 1e-6


def test_log_mel_frame_budget_pad_and_trim():
    w = sine(440, seconds=0.5)
    padded = log_mel(w, mels=40, frame_budget=100)
    assert padded.shape[1] == 100
    base = log_mel(w, mels=40)
    frames = base.shape[1]
    assert np.array_equal(padded[:, :frames], base)
    assert np.all(padded[:, frames:] == base.min())
    trimmed = log_mel(w, mels=40, frame_budget=10)
    assert trimmed.shape[1] == 10
    assert np.array_equal(trimmed, base[:, :10])


def test_log_mel_peaks_at_tone_frequency():
    centers = filterbank_centers(80)
    for freq in (300, 1000, 3000):
        m = log_mel(sine(freq, seconds=0.3), mels=80)
        peak_bin = int(m.mean(axis=1).argmax())
        assert abs(centers[peak_bin] - freq) < 150


def test_log_mel_silence_is_flat():
    m = log_mel(np.zeros(SAMPLE_RATE // 4, dtype=np.float32))
    assert np.allclose(m, m.flat[0])


# -- spec augment --------------------------------------------------------


def test_spec_augment_masks_to_minimum():
    m = log_mel(sine(500, seconds=0.5), mels=40)
    out = spec_augment(m, freq_param=10, time_param=20, rng=RngStream(3))
    assert out.shape == m.shape
    changed = out != m
    assert changed.any()
    assert np.all(out[changed] == m.min())
    # one contiguous frequency band, one contiguous time band
    rows = np.nonzero(changed.all(axis=1))[0]
    if rows.size:
        assert np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))
    cols = np.nonzero(changed.all(axis=0))[0]
    if cols.size:
        assert np.array_equal(cols, np.arange(cols[0], cols[-1] + 1))


def test_spec_augment_band_width_bounds():
    m = log_mel(sine(500, seconds=0.5), mels=40)
    for seed in range(20):
        out = spec_augment(m, freq_param=5, time_param=8, rng=RngStream(seed))
        changed = out != m
        full_rows = changed.all(axis=1).sum()
        full_cols = changed.all(axis=0).sum()
        assert full_rows <= 5
        assert full_cols <= 8


def test_spec_augment_deterministic_and_pure():
    m = log_mel(sine(500, seconds=0.2), mels=40)
    before = m.copy()
    a = spec_augment(m, 10, 10, RngStream(9))
    b = spec_augment(m, 10, 10, RngStream(9))
    assert np.array_equal(a, b)
    assert np.array_equal(m, before)


def test_spec_augment_at_zero_widths_is_the_identity(monkeypatch):
    m = log_mel(sine(500, seconds=0.2), mels=40)
    before = m.copy()
    monkeypatch.setattr(RngStream, "generator",
                        lambda self: pytest.fail("spec_augment drew at widths (0, 0)"))
    out = spec_augment(m, 0, 0, RngStream(9))
    assert out is m
    assert np.array_equal(out, before)


def test_spec_augment_rejects_oversized_params():
    """Widths outside [0, mels] and [0, frames] are refused, negative ones
    included."""
    m = np.zeros((8, 10), dtype=np.float32)
    for freq, time in ((9, 1), (1, 11), (-1, 0), (0, -1), (-1, 1), (1, -1)):
        with pytest.raises(ConfigError):
            spec_augment(m, freq_param=freq, time_param=time, rng=RngStream(0))


# -- noise injection -----------------------------------------------------


def test_inject_noise_hits_requested_snr():
    w = sine(440, seconds=2.0)
    sig_p = float(np.mean(w.astype(np.float64) ** 2))
    out = inject_noise(w, (20.0, 20.0), RngStream(4))
    noise = out.astype(np.float64) - w.astype(np.float64)
    snr_db = 10 * np.log10(sig_p / np.mean(noise ** 2))
    assert abs(snr_db - 20.0) < 0.5


def test_inject_noise_uniform_draw_within_range():
    w = sine(440, seconds=0.5)
    sig_p = float(np.mean(w.astype(np.float64) ** 2))
    snrs = []
    for seed in range(30):
        out = inject_noise(w, (10.0, 30.0), RngStream(seed))
        noise = out.astype(np.float64) - w.astype(np.float64)
        snrs.append(10 * np.log10(sig_p / np.mean(noise ** 2)))
    snrs = np.array(snrs)
    assert (snrs > 9.0).all() and (snrs < 31.0).all()
    assert snrs.std() > 2.0  # actually varies across the range


def test_inject_noise_silence_passthrough():
    w = np.zeros(1000, dtype=np.float32)
    assert inject_noise(w, (10.0, 30.0), RngStream(0)) is w


def test_inject_noise_deterministic():
    w = sine(440, seconds=0.1)
    a = inject_noise(w, (10.0, 30.0), RngStream(11))
    b = inject_noise(w, (10.0, 30.0), RngStream(11))
    assert np.array_equal(a, b)


# -- properties ----------------------------------------------------------


@given(st.integers(1, 3 * HOP), st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_log_mel_frame_count(n, seed):
    gen = np.random.default_rng(seed)
    w = gen.normal(0, 0.1, size=n).astype(np.float32)
    m = log_mel(w, mels=20)
    assert m.shape[1] == max(1, math.ceil(n / HOP))
    assert np.isfinite(m).all()


def assert_log_mel_is_the_gather_form(w, mels, frame_budget):
    got = log_mel(w, mels=mels, frame_budget=frame_budget)
    want = log_mel_reference(w, mels=mels, frame_budget=frame_budget)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(st.integers(0, 3 * N_FFT), st.floats(1e-4, 1.0), st.integers(0, 2 ** 16),
       st.sampled_from([None, 1, 3, 20]), st.sampled_from([20, 40, 80]))
@settings(max_examples=60, deadline=None)
def test_log_mel_is_bitwise_the_gather_form(n, scale, seed, frame_budget, mels):
    gen = np.random.default_rng(seed)
    w = (scale * gen.normal(0, 1, size=n)).astype(np.float32)
    assert_log_mel_is_the_gather_form(w, mels, frame_budget)


@pytest.mark.parametrize("frame_budget", [None, 100, 3000, 4000])
@pytest.mark.parametrize("mels", [20, 40, 80])
def test_log_mel_is_bitwise_the_gather_form_on_silence_and_30_s(frame_budget, mels):
    # silence: every frame at the clamp; 30 s: 3000 frames, trimmed, exact
    # and padded by the budgets above
    assert_log_mel_is_the_gather_form(np.zeros(SAMPLE_RATE // 4, np.float32),
                                      mels, frame_budget)
    assert_log_mel_is_the_gather_form(sine(330, seconds=30.0), mels, frame_budget)
