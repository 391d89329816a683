"""Self-test of the benchmark's layer trace.

    python3 -m pytest -q perfbench/selftest_trace.py

Not collected by a plain `pytest` run (the file name does not start with
`test_`), because each case runs a workload cycle, about a minute in all.
For every workload it runs one cycle untraced and one traced with the same
seed, then checks that

- every span the workload is expected to exercise recorded calls; the
  wrappers must sit in the namespace where each call is made,
- the traced outputs (loss histories, prediction digest) equal the
  untraced ones,
- every original function and method is back in place afterwards.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layertrace  # noqa: E402
import workloads  # noqa: E402
from multidiac import audiofe, data, inference, numerics, training  # noqa: E402

ONE_CYCLE = {"cycles": 1}


def no_wrappers_left():
    owners = layertrace._multidiac_modules()
    owners += [numerics.Tensor, workloads.model.DiacritizerModel]
    return [(getattr(o, "__name__", o), attr) for o in owners
            for attr, value in vars(o).items()
            if hasattr(value, "__perfbench_original__")]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_trace_covers_workload_and_changes_nothing(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    plain = workloads.Pass(str(tmp_path / "plain"), 5, 0.0, ONE_CYCLE)
    workload(plain)
    tracer = layertrace.Tracer()
    with tracer:
        traced = workloads.Pass(str(tmp_path / "traced"), 5, 0.0, ONE_CYCLE)
        workload(traced)
        patched = tracer.patched()
    assert plain.results.failed == 0 and traced.results.failed == 0
    assert plain.results.predictions
    assert traced.results.loss_histories == plain.results.loss_histories
    assert traced.results.prediction_digest() == plain.results.prediction_digest()
    silent = [span for span in layertrace.EXPECTED_SPANS if tracer.calls(span) == 0]
    assert not silent, f"{name}: spans with zero calls: {silent}"
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"
    assert not no_wrappers_left()


def test_wrappers_patch_every_call_site():
    tracer = layertrace.Tracer()
    with tracer:
        for module in (training, inference, audiofe):
            assert hasattr(module.log_mel, "__perfbench_original__"), module.__name__
        assert hasattr(data.load_wav, "__perfbench_original__")
        assert hasattr(numerics.Tensor.__matmul__, "__perfbench_original__")
        assert hasattr(training.nm.softmax, "__perfbench_original__")
    assert not no_wrappers_left()
    assert training.log_mel is audiofe.log_mel is inference.log_mel


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layertrace.PER_LAYER
    e2e = workloads.end_to_end(workloads.Results(
        setup_s=[1.0], train_rates=[1.0], final_losses=[1.0], save_s=[1.0],
        load_s=[1.0], sentence_s=[1.0], letters=1, der=0.5), 1.0)
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    assert len(layertrace.PER_LAYER) <= 128
