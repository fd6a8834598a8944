"""The benchmark's tracer wraps and then restores every traced binding.

``perfbench/tracing.py`` patches comhash at the attributes its callers look
functions up through. These tests install and uninstall it against the
current source, so a traced function that was renamed, removed or given a
new signature fails here, not only in a benchmark run.
"""

import importlib.util
import random
from collections import Counter
from pathlib import Path

from comhash import (ParticipantKeys, Phase, cvhp, pke, run_basic_session,
                     run_threshold_session)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_patched_attribute():
    tracer = _tracing().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        for owner, attr, original in patches:
            wrapper = vars(owner)[attr]
            assert wrapper is not original and wrapper.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert {(pke, "encrypt"), (pke, "decrypt")} <= {(o, a) for o, a, _ in patches}
    assert not tracer._patches
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original


def test_traced_session_records_the_receipt_spans(toy_curve, monkeypatch):
    # the server opens every receipt in one power_many, which the tracer
    # does not wrap, so this test counts its bases itself
    tracer = _tracing().Tracer()
    keys = [ParticipantKeys(2, 3), ParticipantKeys(5, 7), ParticipantKeys(4, 1)]
    opened, power_many = [], type(toy_curve).power_many

    def counted(self, bases, exponent):
        opened.append(len(bases))
        return power_many(self, bases, exponent)

    monkeypatch.setattr(type(toy_curve), "power_many", counted)
    try:
        tracer.install()
        out = run_basic_session(toy_curve, keys, m=6, seed=4)
    finally:
        tracer.uninstall()
    assert out.phase is Phase.DONE
    spans = Counter(span[0] for span in tracer.spans)
    assert spans["pke.encrypt"] == len(keys)
    assert opened == [len(keys)]
    assert tracer.counts["pke.decrypt.failed"] == 0
    assert not hasattr(pke.encrypt, "__wrapped__")


def test_traced_threshold_round_records_its_issuing_and_respond_spans(toy_curve):
    # the benchmark's threshold workload reads these spans and frames.bytes
    tracer = _tracing().Tracer()
    try:
        tracer.install()
        out = run_threshold_session(toy_curve, 5, 6, k=2, n=3, m=7, rng=random.Random(8))
    finally:
        tracer.uninstall()
    assert (out.phase, out.digest) == (Phase.DONE, cvhp(toy_curve, 7 + 5, 6))
    spans = Counter(span[0] for span in tracer.spans)
    assert spans["threshold.begin_round"] == 1
    assert spans["protocol.respond"] == 2
    assert tracer.counts["frames.bytes"] == sum(len(d.data) for d in out.trace)
