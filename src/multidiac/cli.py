"""Operator surface: four subcommands wiring the modules into
reproducible runs.

    multidiac synth  --out DIR --n COUNT --seed S [spec flags]
    multidiac train  --manifest F --out DIR --preset NAME [--seed S]
    multidiac infer  --checkpoints a.ckpt,b.ckpt --manifest F --out DIR
    multidiac eval   --pred F --gold F [--case-endings ...] [--no-diacritic ...]

Every command with a --seed is end-to-end reproducible, and every train or
infer run echoes its fully resolved configuration (presets expanded) to
the output directory as an INI-style key=value document.

Exit codes: 0 success, 1 usage, 2 data/validation (an input too large to
hold in memory included), 3 numeric/invariant.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import data as datamod
from . import metrics as metricsmod
from .errors import (ConfigError, DataError, InvariantViolation, ManifestError,
                     NumericError)
from .audiofe import SAMPLE_RATE, load_wav
from .inference import EnsembleConfig, check_members, diacritize, predict_greedy_corpus
from .model import DiacritizerModel, ModelConfig, desk_config, full_scale_config
from .numerics import RngStream
from .textproc import (ARABIC_LETTERS, Vocabulary, diacritization_ratio,
                       insert_diacritics, strip_diacritics)
from .training import (TRAIN_PRESETS, TrainConfig, check_run, check_text_lengths,
                       decode_config, encode_config, fit, load_checkpoint)

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

MODEL_PRESETS = {"desk": desk_config, "full": full_scale_config}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def utf8_path(text: str) -> str:
    """A path run_config.ini can echo: argparse reports the UnicodeEncodeError
    of an undecodable byte (a lone surrogate) as a usage error."""
    text.encode("utf-8")
    return text


# -- resolved-config document --------------------------------------------


RUN_SECTIONS = {"model": ModelConfig, "train": TrainConfig,
                "ensemble": EnsembleConfig}


def write_run_config(path, model_cfg: ModelConfig, train_cfg: TrainConfig | None,
                     ensemble_cfg: EnsembleConfig | None, paths: dict):
    doc = configparser.ConfigParser(interpolation=None)
    for section, cfg in zip(RUN_SECTIONS, (model_cfg, train_cfg, ensemble_cfg)):
        if cfg is not None:
            doc[section] = encode_config(cfg)
    doc["paths"] = {k: str(v) for k, v in paths.items() if v is not None}
    with open(path, "w", encoding="utf-8") as f:
        doc.write(f)


def read_run_config(path) -> dict:
    """Parse an echoed config document; anything malformed is a ConfigError."""
    doc = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as f:
            doc.read_file(f)
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: not a run config: {e}") from None
    out: dict = {}
    for section in doc.sections():
        if section == "paths":
            out[section] = dict(doc.items(section))
        elif section in RUN_SECTIONS:
            out[section] = decode_config(RUN_SECTIONS[section], doc.items(section))
        else:
            raise ConfigError(f"unknown config section [{section}]")
    return out


# -- subcommands ---------------------------------------------------------


def cmd_synth(args) -> int:
    if args.n <= 0:
        raise UsageError("--n must be positive")
    if args.desk_shape:
        spec = datamod.desk_synth_spec(args.n, args.noise_floor)
    else:
        spec = datamod.SynthSpec(sample_count=args.n, noise_floor=args.noise_floor)
    os.makedirs(args.out, exist_ok=True)
    train, dev = datamod.synthesize_corpus(spec, RngStream(args.seed), args.out)
    records = train + dev
    base = os.path.abspath(args.out)
    durations = [len(load_wav(os.path.join(base, r.audio))) / SAMPLE_RATE for r in records]
    ratios = [diacritization_ratio(r.text) for r in records]
    print(f"samples={len(records)} (train={len(train)} dev={len(dev)})")
    print(f"mean_duration_s={np.mean(durations):.2f}")
    print(f"ratio_min={min(ratios):.3f} ratio_mean={np.mean(ratios):.3f} "
          f"ratio_max={max(ratios):.3f}")
    return 0


def cmd_train(args) -> int:
    resolved = read_run_config(args.config) if args.config else {}
    model_cfg = resolved.get("model") or MODEL_PRESETS[args.model_preset]()
    train_cfg = resolved.get("train") or TRAIN_PRESETS[args.preset]()
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)

    records = datamod.load_manifest(args.manifest)
    kept, dropped = datamod.filter_corpus(records)
    print(f"filter: kept {len(kept)} of {len(records)} "
          f"(dropped {len(dropped)} below ratio {datamod.RATIO_THRESHOLD})")
    corpus = datamod.corpus_from_manifest(args.manifest, kept)
    vocab = Vocabulary.from_texts([r.text for r in kept])
    if len(vocab) > model_cfg.vocab_size:
        model_cfg = replace(model_cfg, vocab_size=len(vocab))
    model = DiacritizerModel(model_cfg, vocab, RngStream(train_cfg.seed))
    check_run(corpus, model, train_cfg)  # before anything is written

    dev_scorer = None
    if args.dev_manifest:
        dev_records = datamod.load_manifest(args.dev_manifest)
        if all(ARABIC_LETTERS.isdisjoint(r.text) for r in dev_records):
            raise ManifestError(f"{args.dev_manifest}: no Arabic letter to score")
        dev_corpus = datamod.corpus_from_manifest(args.dev_manifest, dev_records)
        check_text_lengths(((s.sample_id, s.raw) for s in dev_corpus), model_cfg)
        gold = {r.id: r.text for r in dev_records}

        def dev_scorer(m, _corpus=dev_corpus, _gold=gold):
            classes = predict_greedy_corpus(m, [(s.raw, s.waveform) for s in _corpus])
            preds = {s.sample_id: insert_diacritics(s.raw, c)
                     for s, c in zip(_corpus, classes)}
            return metricsmod.evaluate_corpus(preds, _gold).wer

    os.makedirs(args.out, exist_ok=True)
    write_run_config(os.path.join(args.out, "run_config.ini"),
                     model_cfg, train_cfg, None,
                     {"manifest": args.manifest, "dev_manifest": args.dev_manifest,
                      "out": args.out})
    log_path = os.path.join(args.out, "train.log")
    with open(log_path, "w", encoding="utf-8") as logf:
        def log(line):
            print(line)
            logf.write(line + "\n")
            logf.flush()

        history = fit(corpus, model, train_cfg, out_dir=args.out,
                      dev_scorer=dev_scorer, log=log)
    print(f"fingerprint={history['fingerprint']}")
    print(f"selected={history['selected']}")
    return 0


def cmd_infer(args) -> int:
    paths = [p for p in args.checkpoints.split(",") if p]
    if not paths:
        raise UsageError("--checkpoints must list at least one file")
    ens = EnsembleConfig(passes_per_model=args.passes,
                         inference_dropout_p=args.dropout, seed=args.seed)
    models = [load_checkpoint(p) for p in paths]
    check_members(models, [f"checkpoint {p}" for p in paths])
    records = datamod.load_manifest(args.manifest)
    raws = [strip_diacritics(r.text) for r in records]
    check_text_lengths(zip((r.id for r in records), raws), models[0].config)
    base = os.path.dirname(os.path.abspath(args.manifest))
    wav_paths = [os.path.join(base, r.audio) if r.audio else None for r in records]
    for path in filter(None, wav_paths):
        load_wav(path)  # checked before --out exists, and read again below
    os.makedirs(args.out, exist_ok=True)
    write_run_config(os.path.join(args.out, "run_config.ini"),
                     models[0].config, None, ens,
                     {"checkpoints": args.checkpoints, "manifest": args.manifest,
                      "out": args.out})

    t0 = time.time()
    out_path = os.path.join(args.out, "predictions.jsonl")
    with open(out_path, "w", encoding="utf-8") as f:
        for r, raw, path in zip(records, raws, wav_paths):
            wav = load_wav(path) if path else None
            try:
                text, confidence = diacritize(raw, wav, models, ens)
            except InvariantViolation as e:
                e.args = (f"sample {r.id!r}: {e}",)  # type and invariant kept
                raise
            f.write(json.dumps({"id": r.id, "audio": r.audio, "text": text,
                                "confidence": confidence},
                               ensure_ascii=False) + "\n")
    print(f"models={len(models)} passes_per_model={ens.passes_per_model} "
          f"total_passes={len(models) * ens.passes_per_model}")
    print(f"samples={len(records)} wall_time_s={time.time() - t0:.2f}")
    print(f"predictions={out_path}")
    return 0


def cmd_eval(args) -> int:
    flags = metricsmod.MetricFlags(
        include_case_endings=args.case_endings == "include",
        include_no_diacritic=args.no_diacritic == "include")
    pred, gold = ({r.id: r.text for r in datamod.load_manifest(p, check_audio=False)}
                  for p in (args.pred, args.gold))
    report = metricsmod.evaluate_corpus(pred, gold, flags)
    if not report.words:
        raise ManifestError(f"{args.gold}: no word to score")
    sys.stdout.write(report.as_lines())
    return 0


# -- entry point ---------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="multidiac",
                     description="Multimodal Arabic diacritization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic tone corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-floor", type=float, default=0.01)
    p.add_argument("--desk-shape", action="store_true",
                   help="short fixed-shape samples fitting the desk frame budget")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one selected checkpoint")
    p.add_argument("--manifest", required=True, type=utf8_path)
    p.add_argument("--dev-manifest", type=utf8_path)
    p.add_argument("--out", required=True, type=utf8_path)
    p.add_argument("--config", help="echoed run_config.ini to reproduce")
    p.add_argument("--preset", choices=sorted(TRAIN_PRESETS),
                   default="table1-primary")
    p.add_argument("--model-preset", choices=sorted(MODEL_PRESETS),
                   default="desk")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="MC-Dropout ensemble inference")
    p.add_argument("--checkpoints", required=True, type=utf8_path,
                   help="comma-separated checkpoint files")
    p.add_argument("--manifest", required=True, type=utf8_path)
    p.add_argument("--out", required=True, type=utf8_path)
    p.add_argument("--passes", type=int, default=50)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="DER/WER/SER scoring")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--case-endings", choices=["include", "exclude"],
                   default="include")
    p.add_argument("--no-diacritic", choices=["include", "exclude"],
                   default="include")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, InvariantViolation) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as e:
        # an input too large to hold, such as audio near the WAV size limit
        print(f"error: out of memory{f' ({e})' if str(e) else ''}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
