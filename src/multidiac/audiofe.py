"""Audio ingestion and training-time augmentation.

Audio is a mono float32 sample array in [-1, 1] at the one rate
SAMPLE_RATE (16 kHz), as in Whisper's front end: `load_wav` refuses a file
at any other rate, and nothing else carries or checks a rate.

WAV ingest is strict: RIFF container, 16 kHz mono, PCM16 or IEEE float32.
Features follow the familiar speech-encoder frontend: 25 ms Hann window,
10 ms hop, 80 mel filters, log10 power clamped 8 below the per-utterance
max, then affinely rescaled into roughly [-1, 1]. Augmentation order is
noise injection on the waveform, then log-mel, then SpecAugment.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, IngestError
from .numerics import RngStream

SAMPLE_RATE = 16000
N_FFT = 400
HOP = 160
_WINDOW = np.hanning(N_FFT + 1)[:-1]  # periodic Hann


@dataclass
class MelSpectrogram:
    values: np.ndarray  # (mels, frames) float32, or a (B, mels, frames) stack

    @property
    def mels(self) -> int:
        return self.values.shape[-2]

    @property
    def frames(self) -> int:
        return self.values.shape[-1]


def load_wav(path) -> np.ndarray:
    """Read a 16 kHz mono PCM16/float32 WAV file as float32 samples in
    [-1, 1]. Chunk bodies are views of the file's bytes, not copies."""
    with open(path, "rb") as f:
        blob = memoryview(f.read())
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE container")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(blob):
        chunk_id = bytes(blob[pos:pos + 4])
        (size,) = struct.unpack("<I", blob[pos + 4:pos + 8])
        body = blob[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise FormatError(f"{path}: truncated chunk {chunk_id!r}")
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise FormatError(f"{path}: missing fmt/data chunk")
    if len(fmt) < 16:
        raise FormatError(f"{path}: fmt chunk is {len(fmt)} bytes, need 16")
    audio_format, channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if channels != 1:
        raise IngestError(f"{path}: expected mono, got {channels} channels")
    if rate != SAMPLE_RATE:
        raise IngestError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate} Hz")
    if (audio_format, bits) not in ((1, 16), (3, 32)):
        raise IngestError(f"{path}: unsupported codec (format {audio_format}, "
                          f"{bits}-bit); need PCM16 or float32")
    if len(data) % (bits // 8):
        raise FormatError(f"{path}: data chunk of {len(data)} bytes is not a "
                          f"whole number of {bits}-bit samples")
    if audio_format == 1:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float32)
        samples /= 32768.0
    else:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float32)
        if not np.all(np.isfinite(samples)):
            raise IngestError(f"{path}: float32 samples include NaN or infinity")
    return samples


def save_wav(path, samples: np.ndarray):
    """Write samples as a PCM16 little-endian mono WAV at SAMPLE_RATE."""
    pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    data = pcm.tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16)
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data)) + b"WAVE")
        f.write(b"fmt " + struct.pack("<I", len(fmt)) + fmt)
        f.write(b"data" + struct.pack("<I", len(data)) + data)


def _band_edges(mels: int) -> np.ndarray:
    """mels + 2 band edges in Hz, evenly spaced on the HTK mel scale
    m = 2595 log10(1 + f/700) from 0 Hz to Nyquist."""
    top = 2595.0 * np.log10(1.0 + SAMPLE_RATE / 2 / 700.0)
    return 700.0 * (10.0 ** (np.linspace(0.0, top, mels + 2) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(mels: int) -> np.ndarray:
    """Triangular HTK-mel filterbank, (mels, N_FFT//2 + 1). Cached; treat
    the returned array as read-only."""
    n_bins = N_FFT // 2 + 1
    freqs = np.linspace(0, SAMPLE_RATE / 2, n_bins)
    hz_pts = _band_edges(mels)
    fb = np.zeros((mels, n_bins))
    for m in range(mels):
        lo, mid, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (freqs - lo) / max(mid - lo, 1e-9)
        down = (hi - freqs) / max(hi - mid, 1e-9)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    return fb


def log_mel(samples: np.ndarray, mels: int = 80,
            frame_budget: int | None = None) -> MelSpectrogram:
    """Log-mel spectrogram, padded/trimmed along time to frame_budget frames."""
    n = len(samples)
    frames = max(1, math.ceil(n / HOP))
    padded = np.zeros((frames - 1) * HOP + N_FFT, dtype=np.float64)
    padded[:n] = samples
    windows = np.lib.stride_tricks.sliding_window_view(padded, N_FFT)[::HOP]
    power = np.abs(np.fft.rfft(windows * _WINDOW, axis=1))  # (frames, bins)
    np.square(power, out=power)
    log_spec = power @ mel_filterbank(mels).T  # (frames, mels)
    np.maximum(log_spec, 1e-10, out=log_spec)
    np.log10(log_spec, out=log_spec)
    np.maximum(log_spec, log_spec.max() - 8.0, out=log_spec)
    log_spec += 4.0
    log_spec /= 4.0
    values = log_spec.T.astype(np.float32)  # (mels, frames)

    if frame_budget is not None:
        if frames > frame_budget:
            values = values[:, :frame_budget]
        elif frames < frame_budget:
            fill = np.full((mels, frame_budget - frames), values.min(),
                           dtype=np.float32)
            values = np.concatenate([values, fill], axis=1)
    return MelSpectrogram(values=values)


def spec_augment(m: MelSpectrogram, freq_param: int, time_param: int,
                 rng: RngStream) -> MelSpectrogram:
    """One frequency band and one time band masked to the spectrogram minimum.
    At widths (0, 0) nothing is masked: m itself is returned, with no draw."""
    if freq_param > m.mels:
        raise ConfigError(f"freq_param {freq_param} exceeds {m.mels} mel bins")
    if time_param > m.frames:
        raise ConfigError(f"time_param {time_param} exceeds {m.frames} frames")
    if freq_param == time_param == 0:
        return m
    gen = rng.generator()
    values = m.values.copy()
    fill = values.min()
    f = int(gen.integers(0, freq_param + 1))
    if f > 0:
        f0 = int(gen.integers(0, m.mels - f + 1))
        values[f0:f0 + f, :] = fill
    t = int(gen.integers(0, time_param + 1))
    if t > 0:
        t0 = int(gen.integers(0, m.frames - t + 1))
        values[:, t0:t0 + t] = fill
    return MelSpectrogram(values=values)


def inject_noise(samples: np.ndarray, snr_db_range: tuple[float, float],
                 rng: RngStream) -> np.ndarray:
    """Add Gaussian noise at an SNR drawn uniformly from snr_db_range (dB).
    Silence comes back as the same array, with no draw."""
    power = float(np.mean(samples.astype(np.float64) ** 2))
    if power == 0.0:
        return samples
    gen = rng.generator()
    snr_db = float(gen.uniform(snr_db_range[0], snr_db_range[1]))
    noise_std = math.sqrt(power / 10.0 ** (snr_db / 10.0))
    noise = gen.normal(0.0, noise_std, size=len(samples))
    return (samples + noise).astype(np.float32)
