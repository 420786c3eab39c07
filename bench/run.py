"""Codec benchmark: encode, decode and score throughput, quality, memory and
compression of the ubssvc codec on fixed synthetic workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload cif-sparse --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` of the same checkout. One process
drives all load as a closed loop: each operation starts when the previous
one has returned. ``--trace 0`` prints the end-to-end metrics and ``--trace
1`` the per-layer ones; see ``bench/README.md`` for what each metric means.
The last line of standard output is the result object; the exit code is
non-zero when any operation or check failed.
"""
from __future__ import annotations

import os

# Pinned before numpy loads OpenBLAS: the codec's matrix products are
# 3x4 by 4xT, too small to gain from a second thread, and on a shared
# 2-core machine a second BLAS thread produced the slowest encode and
# decode samples. See README.md, "BLAS threads".
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from calibrate import Calibration, SegmentClock
from tracer import Tracer, per_op_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ".bench_out"  # traced runs leave their spans here


@dataclass(frozen=True)
class Workload:
    width: int
    height: int
    frames: int
    quantization: str

    @property
    def mpix(self) -> float:
        """Source megapixels one encode, decode or score processes."""
        return self.width * self.height * self.frames / 1e6


# Why each workload exists is in README.md. All use the default 3x4 matrix.
WORKLOADS = {
    "cif-sparse": Workload(352, 288, 40, "float-container"),
    "tiny-many-blocks": Workload(64, 64, 400, "float-container"),
    "hd-affine": Workload(1280, 720, 8, "affine-8bit"),
}
PRESET = "sparse-detail"
TAU = 0.05
SETUP_REPS = 3
TAIL_BEYOND = 10  # the tail percentile has at least this many samples above it
# With this many samples the tail sits at or above the median; a run keeps
# looping past --seconds, up to MAX_RUN_FACTOR times it, to collect them.
MIN_SAMPLES = 2 * TAIL_BEYOND + 1
MAX_RUN_FACTOR = 3
CODECS = {
    "gzip": "sh -c 'gzip -c {in} > {out}'",
    "xz": "sh -c 'xz -c {in} > {out}'",
    "zstd": "zstd -q {in} -o {out}",
}
FLOOR_CODEC = "cp {in} {out}"
OPS = ("encode", "decode", "score")
PLAIN_DECODE = "plain-decode"  # the untraced decode of a traced run

END_TO_END_UNITS = {
    "encode_mpix_s": "Mpix/s",
    "encode_ms_tail": "ms",
    "decode_mpix_s": "Mpix/s",
    "decode_ms_tail": "ms",
    "score_mpix_s": "Mpix/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "decode_peak_alloc_mb": "MB",
    "psnr_db": "dB",
    "forced_frac": "fraction",
    **{f"ratio_of_ratios.{name}": "ratio" for name in CODECS},
}
PER_LAYER_UNITS = {
    "sca.recover_block.ms": "ms",
    "sca.recover_block.calls": "count",
    "sca.recover_block.columns": "count",
    "sca.recover_block.zero_frac": "fraction",
    "sca.build_hyperplanes.ms": "ms",
    "sca.build_hyperplanes.calls": "count",
    "sca.recover_dense.ms": "ms",
    "wavelet.haar_forward.ms": "ms",
    "wavelet.haar_forward.calls": "count",
    "wavelet.haar_inverse.self_ms": "ms",
    "wavelet.haar_inverse.calls": "count",
    "mixcore.mix_block.self_ms": "ms",
    "mixcore.mix_block.calls": "count",
    "mixcore.Frame.ms": "ms",
    "mixcore.Frame.calls": "count",
    "mixcore.generalized_inverse.calls": "count",
    "pipeline.encode_sequence.self_ms": "ms",
    "pipeline.decode_sequence.self_ms": "ms",
    "vio.write_container.self_ms": "ms",
    "vio.mixed_stream_bytes.ms": "ms",
    "vio.read_container.ms": "ms",
    "vio.container_bytes": "bytes",
    "metrics.sequence_report.ms": "ms",
    "metrics.frame_mse.calls": "count",
    "synth.generate.ms": "ms",
    "trace.decode_overhead_ms": "ms",
}
# Counts that must repeat exactly in every traced round trip.
EXACT_COUNTS = ("sca.recover_block.columns", "sca.recover_block.zero_columns", "vio.container_bytes")


class Checker:
    """Counts operations attempted and failed; a failure is a mismatch or an exception."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"check failed: {what}: {'; '.join(problems)}", file=sys.stderr)
        return not problems


def _same_frames(a, b) -> bool:
    """Bit-identical sequences of ``Frame``s (or of plain 2-D arrays)."""
    return len(a) == len(b) and all(
        np.array_equal(getattr(x, "pixels", x), getattr(y, "pixels", y)) for x, y in zip(a, b)
    )


@dataclass
class Reference:
    """Warm-up results every timed operation is checked against."""

    frames: list
    decoded: list
    container: bytes
    forced_frac: float
    psnr_db: float


class Bench:
    def __init__(self, name: str, seed: int, workdir: Path, tracer: Tracer | None):
        from ubssvc import metrics, pipeline, synth, vio

        self.pipeline, self.vio, self.metrics, self.synth = pipeline, vio, metrics, synth
        self.workload, self.seed = WORKLOADS[name], seed
        self.container = workdir / "timed.ubss"
        self.tracer = tracer
        self.checks = Checker()
        self.calibration = Calibration()
        # Seconds per successful operation, divided by the slowdown the
        # calibration measured around it; ``raw`` keeps the wall time.
        self.times: dict[str, list[float]] = {op: [] for op in (*OPS, PLAIN_DECODE, "setup")}
        self.raw: dict[str, list[float]] = {op: [] for op in self.times}
        self.slowdowns: dict[tuple, float] = {}  # operation id -> slowdown
        self.ref: Reference | None = None

    # -- set-up -----------------------------------------------------------
    def set_up_once(self, rep: int) -> None:
        """Time one set-up: import, generate, build the config and run every
        timed operation once. The first is the reference; later ones must match it."""
        wl, pipeline, vio = self.workload, self.pipeline, self.vio
        if self.tracer is not None:
            self.tracer.op = ("setup", rep)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        clock = SegmentClock(self.calibration)
        clock.step(lambda: subprocess.run([sys.executable, "-c", "import ubssvc"], env=env, check=True, timeout=120))
        frames = clock.step(lambda: self.synth.generate(PRESET, wl.frames, wl.width, wl.height, self.seed))
        cfg = clock.step(lambda: pipeline.CodecConfig(tau=TAU, quantization=wl.quantization))
        enc = clock.step(lambda: pipeline.encode_sequence(frames, cfg))
        decoded, stats = clock.step(lambda: pipeline.decode_sequence(enc, cfg))
        clock.step(lambda: vio.write_container(enc, self.container))
        file_decoded, file_stats = clock.step(lambda: pipeline.decode_sequence(vio.read_container(self.container), cfg))
        psnr = clock.step(lambda: self.metrics.sequence_report(frames, decoded).mean_psnr)
        self._record(("setup", rep), clock)

        problems = []
        if len(decoded) != len(frames):
            problems.append(f"decoded {len(decoded)} frames from {len(frames)}")
        if not _same_frames(file_decoded, decoded):
            problems.append("file-path decode differs from the in-memory decode")
        if file_stats.forced_columns != stats.forced_columns:
            problems.append("file-path decode forced a different column count")
        ref = Reference(
            frames=frames,
            decoded=decoded,
            container=self.container.read_bytes(),
            forced_frac=stats.forced_columns / stats.total_columns,
            psnr_db=psnr,
        )
        if self.ref is None:
            self.cfg = cfg
            self.ref = ref
        else:
            if not _same_frames(ref.frames, self.ref.frames):
                problems.append("generated frames differ between set-ups")
            if not _same_frames(ref.decoded, self.ref.decoded):
                problems.append("warm-up decode differs between set-ups")
            if ref.container != self.ref.container:
                problems.append("warm-up container differs between set-ups")
            if (ref.forced_frac, ref.psnr_db) != (self.ref.forced_frac, self.ref.psnr_db):
                problems.append("warm-up quality differs between set-ups")
        self.checks.record(f"set-up {rep}", problems)

    # -- timed operations -------------------------------------------------
    def _record(self, op_id: tuple, clock: SegmentClock) -> None:
        """Keep a successful operation's wall time and its normalized time."""
        self.slowdowns[op_id] = clock.slowdown
        self.raw[op_id[0]].append(clock.raw)
        self.times[op_id[0]].append(clock.normalized)

    def _timed(self, op: str, cycle: int, call, check):
        if self.tracer is not None:
            self.tracer.op = (op, cycle)
        clock = SegmentClock(self.calibration)
        try:
            result = clock.step(call)
        except Exception:
            self.checks.record(f"{op} {cycle}", [traceback.format_exc(limit=4).strip()])
            return None
        if self.checks.record(f"{op} {cycle}", check(result)):
            self._record((op, cycle), clock)
        return result

    def encode(self, cycle: int):
        def call():
            enc = self.pipeline.encode_sequence(self.ref.frames, self.cfg)
            self.vio.write_container(enc, self.container)

        def check(_):
            if self.tracer is not None:
                self.tracer.counts[("encode", cycle)]["vio.container_bytes"] += self.container.stat().st_size
            return [] if self.container.read_bytes() == self.ref.container else ["container bytes differ from warm-up"]

        return self._timed("encode", cycle, call, check)

    def decode(self, cycle: int, op: str = "decode"):
        def call():
            return self.pipeline.decode_sequence(self.vio.read_container(self.container), self.cfg)

        result = self._timed(op, cycle, call, self._check_decode)
        return None if result is None else result[0]

    def _check_decode(self, result) -> list[str]:
        decoded, stats = result
        problems = []
        if len(decoded) != len(self.ref.frames):
            problems.append(f"decoded {len(decoded)} frames from {len(self.ref.frames)}")
        elif not _same_frames(decoded, self.ref.decoded):
            problems.append("decoded frames differ from warm-up")
        if stats.forced_columns / stats.total_columns != self.ref.forced_frac:
            problems.append("forced fraction differs from warm-up")
        return problems

    def score(self, cycle: int, decoded) -> None:
        def check(report):
            return [] if report.mean_psnr == self.ref.psnr_db else ["mean PSNR differs from warm-up"]

        self._timed("score", cycle, lambda: self.metrics.sequence_report(self.ref.frames, decoded), check)

    def loop(self, seconds: float) -> int:
        """Closed loop of encode, decode, score rounds for ``seconds``.

        Runs on past the deadline, up to ``MAX_RUN_FACTOR`` times it, until
        each operation has ``MIN_SAMPLES`` samples. In a
        traced run every round starts with an untraced decode, so traced and
        untraced decodes alternate and share any drift of machine speed.
        """
        start = time.perf_counter()
        cycle = 0
        while True:
            if self.tracer is not None:
                self.decode(cycle, PLAIN_DECODE)
                self.tracer.install()
            try:
                self.encode(cycle)
                decoded = self.decode(cycle)
                if decoded is not None:
                    self.score(cycle, decoded)
            finally:
                if self.tracer is not None:
                    self.tracer.uninstall()
            cycle += 1
            elapsed = time.perf_counter() - start
            enough = min(len(self.times[op]) for op in OPS) >= MIN_SAMPLES
            if elapsed >= seconds and (enough or elapsed >= MAX_RUN_FACTOR * seconds):
                return cycle

    # -- untimed measurements ---------------------------------------------
    def decode_peak_alloc_mb(self) -> float | None:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = self.pipeline.decode_sequence(self.vio.read_container(self.container), self.cfg)
            peak = tracemalloc.get_traced_memory()[1]
        except Exception:
            self.checks.record("traced-memory decode", [traceback.format_exc(limit=4).strip()])
            return None
        finally:
            tracemalloc.stop()
        self.checks.record("traced-memory decode", self._check_decode(result))
        return (peak - base) / 1e6

    def compression(self) -> tuple[dict, dict]:
        """Ratio of ratios per codec through ``ubssvc bench``, plus the byte counts."""
        from ubssvc import cli

        wl = self.workload
        base = ["bench", "--porcelain", "--preset", PRESET, "--frames", str(wl.frames),
                "--width", str(wl.width), "--height", str(wl.height), "--seed", str(self.seed),
                "--quant", "affine8", "--codec-cmd"]
        ratios, detail = {}, {}
        for name, template in {"cp": FLOOR_CODEC, **CODECS}.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(base + [template])
            values = dict(line.split("=", 1) for line in out.getvalue().splitlines() if "=" in line)
            problems = [] if code == 0 else [f"ubssvc bench exited {code}"]
            if code == 0:
                ratios[name] = float(values["ratio_of_ratios"])
                detail[name] = {k: values[k] for k in ("codec.compressed_bytes", "ubss_codec.compressed_bytes")}
            if name == "cp" and code == 0 and ratios[name] != 4 / 3:
                problems.append(f"identity codec gave {ratios[name]!r}, not the 4/3 floor")
            self.checks.record(f"compression {name}", problems)
        detail["raw.original_bytes"] = values.get("raw.original_bytes")
        return ratios, detail

    # -- reporting ----------------------------------------------------------
    def end_to_end(self, ratios: dict, alloc_mb: float, rss_mb: float) -> tuple[dict, dict]:
        mpix, times = self.workload.mpix, self.times
        # An operation that never succeeded has no time; its metrics read null.
        rate = {op: mpix / statistics.median(times[op]) if times[op] else None for op in OPS}
        tail = {op: _tail(times[op]) * 1e3 if times[op] else None for op in OPS}
        values = {
            "encode_mpix_s": rate["encode"],
            "encode_ms_tail": tail["encode"],
            "decode_mpix_s": rate["decode"],
            "decode_ms_tail": tail["decode"],
            "score_mpix_s": rate["score"],
            "setup_s": statistics.median(times["setup"]),
            "peak_rss_mb": rss_mb,
            "decode_peak_alloc_mb": alloc_mb,
            "psnr_db": self.ref.psnr_db,
            "forced_frac": self.ref.forced_frac,
            **{f"ratio_of_ratios.{name}": ratios.get(name) for name in CODECS},
        }
        detail = {"timings_ms": {op: _summary(self.times[op]) for op in OPS},
                  "raw_timings_ms": {op: _summary(self.raw[op]) for op in OPS},
                  "setup_s": {"normalized": self.times["setup"], "raw": self.raw["setup"]}}
        return values, detail

    def per_layer(self) -> tuple[dict, dict]:
        """Per-round medians of span times (normalized like the end-to-end times) and counts."""
        tracer = self.tracer
        rounds: dict = defaultdict(lambda: defaultdict(float))
        generate_ms = []
        for op, row in per_op_totals(tracer.spans, tracer.counts).items():
            if op is None:
                continue
            slowdown = self.slowdowns.get(op, 1.0)  # a failed operation has none
            row = {k: v / slowdown if k.endswith("ms") else v for k, v in row.items()}
            if op[0] == "setup":
                generate_ms.append(row.get("synth.generate.ms", 0.0))
            elif op[0] in OPS:
                for key, value in row.items():
                    rounds[op[1]][key] += value
        rows = [rounds[c] for c in sorted(rounds)]
        # A layer absent from a round counts as zero there.
        values = {key: statistics.median(r.get(key, 0.0) for r in rows) for key in PER_LAYER_UNITS}
        values["sca.recover_block.zero_frac"] = statistics.median(
            r["sca.recover_block.zero_columns"] / r["sca.recover_block.columns"]
            if r["sca.recover_block.columns"] else 0.0
            for r in rows
        )
        values["synth.generate.ms"] = statistics.median(generate_ms)
        values["trace.decode_overhead_ms"] = (
            statistics.median(self.times["decode"]) - statistics.median(self.times[PLAIN_DECODE])
        ) * 1e3

        exact = sorted({k for r in rows for k in r if k.endswith(".calls")} | set(EXACT_COUNTS))
        first = {k: rows[0].get(k, 0) for k in exact}
        varying = sorted(k for k in exact if any(r.get(k, 0) != first[k] for r in rows))
        problems = [f"counts differ between traced rounds: {', '.join(varying)}"] if varying else []
        if len(rows) < 2:
            problems.append("fewer than two traced rounds")
        self.checks.record("trace counts", problems)
        detail = {
            "traced_rounds": len(rows),
            "decode_ms": {"traced": _summary(self.times["decode"]),
                          "untraced": _summary(self.times[PLAIN_DECODE])},
            "counts_per_round": first,
        }
        return values, detail


def _tail_index(n: int) -> int:
    """Rank of the highest sample with TAIL_BEYOND samples above it (the maximum if too few)."""
    return n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1


def _tail(values: list[float]) -> float:
    return sorted(values)[_tail_index(len(values))]


def _summary(values: list[float]) -> dict:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"samples": 0}
    q = statistics.quantiles(ordered, n=4) if n > 1 else [ordered[0]] * 3
    tail_index = _tail_index(n)
    return {
        "samples": n,
        "median": statistics.median(ordered) * 1e3,
        "q1": q[0] * 1e3,
        "q3": q[2] * 1e3,
        "tail": ordered[tail_index] * 1e3,
        "tail_percentile": round(100.0 * (tail_index + 1) / n, 1),
        "samples_beyond_tail": n - 1 - tail_index,
    }


def _run_text(argv, **kwargs) -> str:
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=30, **kwargs)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unavailable: {exc}"
    return (proc.stdout or proc.stderr).strip()


def _blas() -> dict:
    info = {"threads_env": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info.update(threads=get_threads(), config=get_config().decode())
                return info
    return info


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ubssvc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    commit = _run_text(["git", "rev-parse", "HEAD"], cwd=ROOT) if (ROOT / ".git").exists() else None
    tools = {}
    for tool in ("gzip", "xz", "zstd"):
        text = _run_text([tool, "--version"])
        match = re.search(r"\d+(?:\.\d+)+", text)
        tools[tool] = match.group(0) if match else text or "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "tools": tools,
        "load": "closed loop, one process, one round of encode/decode/score at a time",
    }


def run(args, workdir: Path) -> dict:
    tracer = Tracer() if args.trace else None
    bench = Bench(args.workload, args.seed, workdir, tracer)
    if tracer is not None:
        tracer.install()
    try:
        for rep in range(SETUP_REPS):
            bench.set_up_once(rep)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rounds = bench.loop(args.seconds)

    if args.trace:
        metrics, detail = bench.per_layer()
        units = PER_LAYER_UNITS
        spans = ROOT / SPANS_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
        spans.parent.mkdir(exist_ok=True)
        tracer.write(spans)
        detail["spans_file"] = spans.relative_to(ROOT).as_posix()
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        alloc_mb = bench.decode_peak_alloc_mb()
        ratios, compression = bench.compression()
        metrics, detail = bench.end_to_end(ratios, alloc_mb, rss_mb)
        detail["compression"] = compression
        units = END_TO_END_UNITS
    detail["rounds"] = rounds
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    checks = bench.checks
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ubssvc" / "__init__.py").is_file():
        print(f"error: no ubssvc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ubssvc

    if Path(ubssvc.__file__).resolve().parent != SRC / "ubssvc":
        print(f"error: imported ubssvc from {ubssvc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True)
    tempfile.tempdir = str(workdir)  # `ubssvc bench` and the codecs write here
    try:
        result = run(args, workdir)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
