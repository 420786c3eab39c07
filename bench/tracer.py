"""Span recording around the codec's layer boundaries, from outside the package.

The tracer swaps each traced function for a wrapper in every loaded
``ubssvc`` module that holds it (both ``from .x import f`` and ``x.f`` call
sites see the wrapper), records one span per call, and restores the
originals on :meth:`Tracer.uninstall`. A target that the package no longer
defines is skipped, so its metrics read zero instead of failing the run.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the operation id the benchmark
set when the call started. Spans stay in memory until the run ends, when
:meth:`Tracer.write` saves them.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (defining module, attribute, span name). ``Frame.__post_init__`` is the
# per-frame copy and finiteness scan every ``Frame`` construction pays.
TARGETS = (
    ("ubssvc.pipeline", "encode_sequence", "pipeline.encode_sequence"),
    ("ubssvc.pipeline", "decode_sequence", "pipeline.decode_sequence"),
    ("ubssvc.mixcore", "mix_block", "mixcore.mix_block"),
    ("ubssvc.mixcore", "generalized_inverse", "mixcore.generalized_inverse"),
    ("ubssvc.mixcore", "Frame.__post_init__", "mixcore.Frame"),
    ("ubssvc.wavelet", "haar_forward", "wavelet.haar_forward"),
    ("ubssvc.wavelet", "haar_inverse", "wavelet.haar_inverse"),
    ("ubssvc.sca", "recover_block", "sca.recover_block"),
    ("ubssvc.sca", "build_hyperplanes", "sca.build_hyperplanes"),
    ("ubssvc.sca", "recover_dense", "sca.recover_dense"),
    ("ubssvc.vio", "write_container", "vio.write_container"),
    ("ubssvc.vio", "mixed_stream_bytes", "vio.mixed_stream_bytes"),
    ("ubssvc.vio", "read_container", "vio.read_container"),
    ("ubssvc.metrics", "sequence_report", "metrics.sequence_report"),
    ("ubssvc.metrics", "frame_mse", "metrics.frame_mse"),
    ("ubssvc.synth", "generate", "synth.generate"),
)


def _recover_block_counts(result, counts):
    _, stats = result
    counts["sca.recover_block.columns"] += stats.total_columns
    counts["sca.recover_block.zero_columns"] += stats.zero_columns


# Work counted from a layer's own return value, where the work happens.
COUNTERS = {"sca.recover_block": _recover_block_counts}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # op -> name -> count
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(result, self.counts[self.op])
            return result

        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "ubssvc"]
        for module_name, attr, span_name in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            if "." in attr:  # a method: patch the class attribute
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, method, None) if cls is not None else None
                if original is not None:
                    self._patch(cls, method, self._wrap(span_name, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one JSON array per line: name, start, end (s), parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, None if op is None else list(op)]) + "\n")


def per_op_totals(spans, counts):
    """Per operation id: ``{metric: value}`` for time, self time and calls.

    Self time is a span's duration minus the durations of its direct
    children; calls nest strictly on one thread, so children never overlap.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = defaultdict(lambda: defaultdict(float))
    for index, (name, start, end, parent, op) in enumerate(spans):
        row = totals[op]
        duration = end - start
        row[f"{name}.ms"] += duration * 1e3
        row[f"{name}.self_ms"] += (duration - child_time[index]) * 1e3
        row[f"{name}.calls"] += 1
    for op, row in counts.items():
        for key, value in row.items():
            totals[op][key] += value
    return totals
