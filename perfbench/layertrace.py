"""Outside-in layer trace: wraps the public functions of the multidiac
modules from the benchmark's side and aggregates span times.

Nothing in `src/` knows about the trace. `Tracer.install()` replaces every
binding of a traced function in every loaded `multidiac` module, because a
call resolves the name in the namespace where it is made: `training` and
`inference` bind `log_mel` through `from .audiofe import log_mel`, so
patching `audiofe.log_mel` alone would miss their calls. Methods
(`Tensor.__matmul__`, `Tensor.backward`, the model's forward passes) are
patched on their class. `Tracer.uninstall()` puts every original back.

Spans are aggregated as they close, keyed by name, instead of being kept
one by one: an ensemble run makes millions of kernel calls. A span's self
time is its duration minus the time of the traced spans it encloses. Time
spent inside the trace's own hooks (digests, graph counting) is removed
from every enclosing span. The numerics kernels are keyed by the model
span that encloses them: `speech` under `model.speech_encode`, `text`
under `model.forward`, `other` elsewhere (the losses, the ensemble
softmax).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
from time import perf_counter

import numpy as np

# (module, function, split by enclosing model span)
FUNCTIONS = [
    ("audiofe", "load_wav", False),
    ("audiofe", "log_mel", False),
    ("audiofe", "inject_noise", False),
    ("audiofe", "spec_augment", False),
    ("numerics", "gelu", True),
    ("numerics", "softmax", True),
    ("numerics", "layer_norm", True),
    ("numerics", "scaled_dot_attention", True),
    ("numerics", "dropout", True),
    ("numerics", "conv1d", False),
    ("numerics", "embedding", False),
    ("training", "prepare_sample", False),
    ("training", "rdrop_objective", False),
    ("training", "focal_loss_ls", False),
    ("training", "sym_kl", False),
    ("training", "adamw_step", False),
    ("training", "save_checkpoint", False),
    ("training", "read_checkpoint", False),
    ("training", "load_checkpoint", False),
    ("inference", "diacritize", False),
    ("inference", "mc_forward", False),
    ("inference", "ensemble_average", False),
    ("inference", "predict_greedy", False),
    ("metrics", "evaluate_corpus", False),
    ("data", "load_manifest", False),
    ("data", "corpus_from_manifest", False),
]

# (module, class, method, span name, split by enclosing model span)
METHODS = [
    ("numerics", "Tensor", "__matmul__", "numerics.matmul", True),
    ("numerics", "Tensor", "backward", "numerics.backward", False),
    ("model", "DiacritizerModel", "speech_encode", "model.speech_encode", False),
    ("model", "DiacritizerModel", "pool_project", "model.pool_project", False),
    ("model", "DiacritizerModel", "forward", "model.forward", False),
]

CONTEXT_OF = {"model.speech_encode": "speech", "model.forward": "text"}

S, COUNT = "s", "count"

# Every per-layer metric: name -> unit. Byte and FLOP rates are computed
# from file sizes and tensor shapes, not read from hardware counters.
PER_LAYER = {
    "audiofe.load_wav.total_s": S,
    "audiofe.log_mel.calls": COUNT,
    "audiofe.log_mel.total_s": S,
    "audiofe.inject_noise.total_s": S,
    "audiofe.spec_augment.total_s": S,
    "numerics.matmul.speech.self_s": S,
    "numerics.matmul.text.self_s": S,
    "numerics.matmul.speech.gflop": "GFLOP",
    "numerics.matmul.text.gflop": "GFLOP",
    "numerics.gelu.speech.self_s": S,
    "numerics.gelu.text.self_s": S,
    "numerics.softmax.speech.self_s": S,
    "numerics.softmax.text.self_s": S,
    "numerics.layer_norm.speech.self_s": S,
    "numerics.layer_norm.text.self_s": S,
    "numerics.scaled_dot_attention.speech.self_s": S,
    "numerics.scaled_dot_attention.text.self_s": S,
    "numerics.dropout.text.self_s": S,
    "numerics.conv1d.self_s": S,
    "numerics.embedding.self_s": S,
    "numerics.backward.calls": COUNT,
    "numerics.backward.total_s": S,
    "model.speech_encode.calls": COUNT,
    "model.speech_encode.total_s": S,
    "model.speech_encode.matmul_share": "ratio",
    "model.speech_encode.repeat_share": "ratio",
    "model.pool_project.total_s": S,
    "model.forward.calls": COUNT,
    "model.forward.total_s": S,
    "model.forward.graph_nodes": "nodes",
    "training.prepare_sample.calls": COUNT,
    "training.prepare_sample.total_s": S,
    "training.rdrop_objective.total_s": S,
    "training.focal_loss_ls.total_s": S,
    "training.sym_kl.total_s": S,
    "training.adamw_step.calls": COUNT,
    "training.adamw_step.total_s": S,
    "training.save_checkpoint.total_s": S,
    "training.save_checkpoint.mb_per_s": "MB/s",
    "training.read_checkpoint.total_s": S,
    "training.read_checkpoint.mb_per_s": "MB/s",
    "training.load_checkpoint.total_s": S,
    "inference.diacritize.calls": COUNT,
    "inference.diacritize.total_s": S,
    "inference.mc_forward.calls": COUNT,
    "inference.mc_forward.passes": COUNT,
    "inference.mc_forward.total_s": S,
    "inference.ensemble_average.total_s": S,
    "inference.predict_greedy.calls": COUNT,
    "inference.predict_greedy.total_s": S,
    "metrics.evaluate_corpus.total_s": S,
    "data.load_manifest.total_s": S,
    "data.corpus_from_manifest.total_s": S,
    "trace.overhead_share": "ratio",
}

# Spans each workload must record at least once; the coverage self-test
# fails on any that stays at zero calls. Every workload sets up, trains,
# round-trips a checkpoint and runs the MC ensemble, so all of them expect
# every span. The speech-context dropout is a no-op call (the speech
# encoder runs in eval mode) and is not reported.
EXPECTED_SPANS = sorted(
    {f"{mod}.{fn}.{ctx}" if split else f"{mod}.{fn}"
     for mod, fn, split in FUNCTIONS
     for ctx in (("text",) if fn == "dropout" else ("speech", "text"))}
    | {f"{name}.{ctx}" if split else name
       for _, _, _, name, split in METHODS for ctx in ("speech", "text")})


def _multidiac_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "multidiac" or name.startswith("multidiac."))]


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span aggregates for one traced pass. Not thread-safe; the benchmark
    runs one closed-loop caller."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._stack: list[list[float]] = []    # [child span time, hook time]
        self._context: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.gflop = {"speech": 0.0, "text": 0.0, "other": 0.0}
        self.mc_passes = 0
        self.file_bytes = {"training.save_checkpoint": 0, "training.read_checkpoint": 0}
        self.graph_nodes = 0
        self.graph_samples = 0
        self._speech_seen: set[tuple[bytes, bytes]] = set()
        self._speech_digests: dict[int, tuple[list, bytes]] = {}
        self.speech_repeats = 0

    # -- install / uninstall ------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {mod: importlib.import_module(f"multidiac.{mod}")
                   for mod in {f[0] for f in FUNCTIONS} | {m[0] for m in METHODS}}
        for mod, fn, split in FUNCTIONS:
            original = getattr(modules[mod], fn)
            wrapper = self._wrap(original, f"{mod}.{fn}", split)
            for m in _multidiac_modules():
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)
        for mod, cls_name, method, name, split in METHODS:
            cls = getattr(modules[mod], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name, split))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every binding install() replaced."""
        return list(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name, split):
        pre, post = _HOOKS.get(name, (None, None))
        context = CONTEXT_OF.get(name)
        stack, contexts = self._stack, self._context
        tracer = self
        if split:
            by_context = {ctx: self.stats.setdefault(f"{name}.{ctx}", _Stat())
                          for ctx in ("speech", "text", "other")}
        else:
            own = self.stats.setdefault(name, _Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_pre = perf_counter()
            if pre:
                pre(tracer, args, kwargs)
            stat = by_context[contexts[-1] if contexts else "other"] if split else own
            frame = [0.0, 0.0]
            stack.append(frame)
            if context:
                contexts.append(context)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if context:
                    contexts.pop()
            duration = t1 - t0 - frame[1]
            stat.calls += 1
            stat.total += duration
            stat.self_time += duration - frame[0]
            if post:
                post(tracer, args, out, stat)
            if stack:
                parent = stack[-1]
                parent[0] += duration
                parent[1] += frame[1] + (t0 - t_pre) + (perf_counter() - t1)
            return out

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def _get(self, key: str) -> _Stat:
        return self.stats.get(key) or _Stat()

    def calls(self, key: str) -> int:
        return self._get(key).calls

    def metrics(self, overhead_share: float) -> dict[str, float]:
        """Every PER_LAYER metric, from the aggregates."""
        g = self._get
        out: dict[str, float] = {}
        for name in PER_LAYER:
            span, _, quantity = name.rpartition(".")
            if quantity == "calls":
                out[name] = g(span).calls
            elif quantity == "total_s":
                out[name] = g(span).total
            elif quantity == "self_s":
                out[name] = g(span).self_time
        for ctx in ("speech", "text"):
            out[f"numerics.matmul.{ctx}.gflop"] = self.gflop[ctx]
        encode = g("model.speech_encode")
        out["model.speech_encode.matmul_share"] = \
            g("numerics.matmul.speech").self_time / encode.total if encode.total else 0.0
        out["model.speech_encode.repeat_share"] = \
            self.speech_repeats / encode.calls if encode.calls else 0.0
        out["model.forward.graph_nodes"] = \
            self.graph_nodes / self.graph_samples if self.graph_samples else 0.0
        for span in self.file_bytes:
            total = g(span).total
            out[f"{span}.mb_per_s"] = self.file_bytes[span] / 1e6 / total if total else 0.0
        out["inference.mc_forward.passes"] = self.mc_passes
        out["trace.overhead_share"] = overhead_share
        return out


# -- per-span hooks: pre(tracer, args, kwargs), post(tracer, args, out, stat) --


def _matmul_post(tracer, args, out, stat):
    ctx = tracer._context[-1] if tracer._context else "other"
    tracer.gflop[ctx] += 2.0 * out.data.size * args[0].data.shape[-1] / 1e9


def _mc_forward_pre(tracer, args, kwargs):
    tracer.mc_passes += kwargs["passes"] if "passes" in kwargs else args[3]


def _save_post(tracer, args, out, stat):
    tracer.file_bytes["training.save_checkpoint"] += os.path.getsize(args[0])


def _read_post(tracer, args, out, stat):
    tracer.file_bytes["training.read_checkpoint"] += os.path.getsize(args[0])


def _speech_params_digest(tracer, model) -> bytes:
    """Digest of the speech parameters, recomputed only when a parameter
    array was replaced (AdamW and checkpoint loads assign new arrays). The
    cache holds the arrays themselves so an id cannot be reused."""
    arrays = [p.data for n, p in sorted(model.params.items()) if n.startswith("speech.")]
    cached = tracer._speech_digests.get(id(model))
    if cached and len(cached[0]) == len(arrays) and \
            all(a is b for a, b in zip(cached[0], arrays)):
        return cached[1]
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    if len(tracer._speech_digests) > 8:
        tracer._speech_digests.clear()
    tracer._speech_digests[id(model)] = (arrays, h.digest())
    return h.digest()


def _speech_encode_pre(tracer, args, kwargs):
    model, mel = args[0], args[1] if len(args) > 1 else kwargs["m"]
    key = (_speech_params_digest(tracer, model),
           hashlib.blake2b(np.ascontiguousarray(mel.values).tobytes(),
                           digest_size=16).digest())
    if key in tracer._speech_seen:
        tracer.speech_repeats += 1
    else:
        tracer._speech_seen.add(key)


GRAPH_SAMPLE_EVERY = 8


def _graph_nodes_post(tracer, args, out, stat):
    """Counts the graph of calls 1, 9, 17, ...; the mean over those calls is
    the per-call figure (the graph of one call depends on its shapes and
    mode, not on values). Counting every call would double the trace's
    overhead on the ensemble."""
    if (stat.calls - 1) % GRAPH_SAMPLE_EVERY:
        return
    tracer.graph_samples += 1
    seen = {id(out)}
    todo = [out]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    tracer.graph_nodes += len(seen)


_HOOKS = {
    "numerics.matmul": (None, _matmul_post),
    "inference.mc_forward": (_mc_forward_pre, None),
    "training.save_checkpoint": (None, _save_post),
    "training.read_checkpoint": (None, _read_post),
    "model.speech_encode": (_speech_encode_pre, None),
    "model.forward": (None, _graph_nodes_post),
}
