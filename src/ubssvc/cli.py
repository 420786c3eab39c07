"""Command-line surface.

Subcommands: validate-matrix, gen, mix, separate, roundtrip, psnr, bench.
Exit codes: 0 success, 1 usage error, 2 data/format error, 3 external
command failure. ``--porcelain`` switches reports to key=value lines.
"""
from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace

from . import pipeline, synth, vio
from .mixcore import (
    DEFAULT_DET_FLOOR,
    default_mixing_matrix,
    validate_mixing_matrix,
)
from .pipeline import QUANT_AFFINE, QUANT_FLOAT, CodecConfig

_QUANT_FLAG = {"float": QUANT_FLOAT, "affine8": QUANT_AFFINE}


@dataclass(frozen=True)
class BenchResult:
    """One row of compression accounting: ratio against a common original."""

    label: str
    original_bytes: int
    compressed_bytes: int
    ratio: float
    improvement_percent: float


def compression_ratio(original_bytes, compressed_bytes, label="") -> BenchResult:
    if original_bytes <= 0 or compressed_bytes <= 0:
        raise ValueError("byte counts must be positive")
    ratio = original_bytes / compressed_bytes
    return BenchResult(
        label=label,
        original_bytes=original_bytes,
        compressed_bytes=compressed_bytes,
        ratio=ratio,
        improvement_percent=(ratio - 1.0) * 100.0,
    )


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2 for
    # data errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ubssvc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--porcelain", action="store_true", help="key=value output")
        return p

    p = add("validate-matrix", "check every square submatrix of the mixing matrix")
    p.add_argument("--config", help="config file (defaults to the built-in matrix)")
    p.add_argument("--det-floor", type=float, default=DEFAULT_DET_FLOOR)
    p.set_defaults(func=_cmd_validate_matrix)

    p = add("gen", "write a deterministic synthetic PGM sequence")
    p.add_argument("--preset", default="sparse-detail", choices=synth.PRESETS)
    p.add_argument("--frames", type=int, default=40)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True, help="output pattern, e.g. 'dir/f_{i:04d}.pgm'")
    p.set_defaults(func=_cmd_gen)

    p = add("mix", "encode a sequence into a container")
    p.add_argument("input", help="PGM file/pattern/directory, or raw file with --width/--height")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--frames", type=int, help="frame count for raw input")
    p.add_argument("--config")
    p.add_argument("--tau", type=float)
    p.add_argument("--quant", choices=sorted(_QUANT_FLAG))
    p.add_argument("--out", required=True, help="container path")
    p.set_defaults(func=_cmd_mix)

    p = add("separate", "decode a container back into frames")
    p.add_argument("input", help="container path")
    p.add_argument("--config")
    p.add_argument("--tau", type=float)
    p.add_argument("--out", required=True, help="PGM output pattern")
    p.set_defaults(func=_cmd_separate)

    p = add("roundtrip", "encode + decode in memory and report quality")
    p.add_argument("input", nargs="?", help="PGM file/pattern/directory, or raw with --width/--height")
    p.add_argument("--preset", choices=synth.PRESETS, help="generate input instead of reading it")
    p.add_argument("--frames", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--config")
    p.add_argument("--tau", type=float)
    p.add_argument("--quant", choices=sorted(_QUANT_FLAG))
    p.set_defaults(func=_cmd_roundtrip)

    p = add("psnr", "score a reconstructed sequence against a reference")
    p.add_argument("reference")
    p.add_argument("test")
    p.set_defaults(func=_cmd_psnr)

    p = add("bench", "compare an external codec on original vs mixed raw streams")
    p.add_argument("input", nargs="?", help="PGM file/pattern/directory, or raw with --width/--height")
    p.add_argument("--preset", choices=synth.PRESETS)
    p.add_argument("--frames", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--config")
    p.add_argument(
        "--quant",
        choices=sorted(_QUANT_FLAG),
        default="affine8",
        help="mixed-stream export precision (affine8 = one byte per pixel)",
    )
    p.add_argument(
        "--codec-cmd",
        required=True,
        help="command template run on each stream, e.g. 'cp {in} {out}'",
    )
    p.set_defaults(func=_cmd_bench)

    return parser


def _load_cfg(args) -> CodecConfig:
    cfg = pipeline.load_config(args.config) if getattr(args, "config", None) else CodecConfig()
    overrides = {}
    if getattr(args, "tau", None) is not None:
        overrides["tau"] = args.tau
    if getattr(args, "quant", None) is not None:
        overrides["quantization"] = _QUANT_FLAG[args.quant]
    return replace(cfg, **overrides)


def _load_frames(args):
    if getattr(args, "preset", None) and not getattr(args, "input", None):
        count = args.frames if args.frames is not None else 40
        width = args.width or 64
        height = args.height or 64
        return synth.generate(args.preset, count, width, height, args.seed)
    if not getattr(args, "input", None):
        raise ValueError("an input path or --preset is required")
    if args.width is not None or args.height is not None:
        return vio.read_sequence(
            args.input, width=args.width, height=args.height, count=getattr(args, "frames", None)
        ).frames
    return vio.read_sequence(args.input).frames


def _cmd_validate_matrix(args) -> int:
    if args.config:
        parsed = pipeline.parse_config(args.config)
        entries = parsed.get("matrix", default_mixing_matrix().entries)
    else:
        entries = default_mixing_matrix().entries
    report = validate_mixing_matrix(entries, args.det_floor)
    if args.porcelain:
        for cols, mag in report.submatrix_results:
            print(f"det.{'_'.join(map(str, cols))}={mag!r}")
        print(f"min_abs_determinant={report.min_abs_determinant!r}")
        print(f"passed={'true' if report.passed else 'false'}")
    else:
        print(f"{entries.shape[0]}x{entries.shape[1]} matrix, det floor {args.det_floor:g}")
        for cols, mag in report.submatrix_results:
            print(f"  columns {cols}: |det| = {mag:.6f}")
        print(f"result: {'PASS' if report.passed else 'FAIL'} "
              f"(min |det| = {report.min_abs_determinant:.6f})")
    return 0 if report.passed else 2


def _cmd_gen(args) -> int:
    frames = synth.generate(args.preset, args.frames, args.width, args.height, args.seed)
    paths = vio.write_sequence(frames, args.out)
    if args.porcelain:
        print(f"frames={len(paths)}")
        print(f"first={paths[0]}")
        print(f"last={paths[-1]}")
    else:
        print(f"wrote {len(paths)} frames: {paths[0]} .. {paths[-1]}")
    return 0


def _cmd_mix(args) -> int:
    frames = _load_frames(args)
    cfg = _load_cfg(args)
    enc = pipeline.encode_sequence(frames, cfg)
    vio.write_container(enc, args.out)
    size = os.path.getsize(args.out)
    if args.porcelain:
        print(f"sources={len(frames)}")
        print(f"mixed={len(enc.mixed_codes)}")
        print(f"tail={len(enc.tail_codes)}")
        print(f"container_bytes={size}")
    else:
        print(
            f"mixed {len(frames)} frames into {len(enc.mixed_codes)} "
            f"(+{len(enc.tail_codes)} tail) -> {args.out} ({size} bytes)"
        )
    return 0


def _cmd_separate(args) -> int:
    enc = vio.read_container(args.input)
    if args.config:
        cfg = _load_cfg(args)
    else:
        cfg = CodecConfig(
            matrix=enc.matrix,
            tau=args.tau if args.tau is not None else pipeline.DEFAULT_TAU,
            quantization=enc.quantization,
        )
    decoded, stats = pipeline.decode_sequence(enc, cfg)
    paths = vio.write_sequence(decoded, args.out)
    if args.porcelain:
        print(f"decoded={len(paths)}")
        _print_stats_porcelain(stats)
    else:
        print(f"decoded {len(paths)} frames: {paths[0]} .. {paths[-1]}")
        _print_stats(stats)
    return 0


def _print_stats(stats) -> None:
    print(
        f"columns: total={stats.total_columns} zero={stats.zero_columns} "
        f"clean={stats.clean_columns} forced={stats.forced_columns}"
    )
    q = stats.residual_quantiles()
    if q:
        print(
            "relative residual quantiles (0/25/50/75/100%): "
            + " ".join(f"{v:.3e}" for v in q)
        )


def _print_stats_porcelain(stats) -> None:
    print(f"columns.total={stats.total_columns}")
    print(f"columns.zero={stats.zero_columns}")
    print(f"columns.clean={stats.clean_columns}")
    print(f"columns.forced={stats.forced_columns}")
    for prob, value in zip((0, 25, 50, 75, 100), stats.residual_quantiles()):
        print(f"residual.q{prob}={value!r}")


def _cmd_roundtrip(args) -> int:
    frames = _load_frames(args)
    cfg = _load_cfg(args)
    report = pipeline.roundtrip_eval(frames, cfg)
    if args.porcelain:
        print(f"sources={report.source_count}")
        print(f"mixed={report.mixed_count}")
        print(f"tail={report.tail_count}")
        print(f"decoded={report.decoded_count}")
        _print_stats_porcelain(report.recovery)
        print(report.quality.to_porcelain())
    else:
        print(
            f"sources: {report.source_count}, mixed: {report.mixed_count}, "
            f"tail: {report.tail_count}, decoded: {report.decoded_count}"
        )
        _print_stats(report.recovery)
        print(report.quality.to_table())
    return 0


def _cmd_psnr(args) -> int:
    from .metrics import sequence_report

    ref = vio.read_sequence(args.reference).frames
    test = vio.read_sequence(args.test).frames
    report = sequence_report(ref, test)
    print(report.to_porcelain() if args.porcelain else report.to_table())
    return 0


class _CodecRunError(Exception):
    pass


def _run_codec(template: str, in_path: str, out_path: str) -> int:
    """Run one codec invocation; returns the output size in bytes."""
    argv = [
        token.replace("{in}", in_path).replace("{out}", out_path)
        for token in shlex.split(template)
    ]
    if not argv:
        raise ValueError("empty codec command")
    try:
        proc = subprocess.run(argv, capture_output=True)
    except OSError as exc:
        raise _CodecRunError(f"could not run {argv[0]!r}: {exc}") from exc
    if proc.returncode != 0:
        detail = proc.stderr.decode(errors="replace").strip()
        raise _CodecRunError(
            f"{argv[0]} exited {proc.returncode}" + (f": {detail}" if detail else "")
        )
    if not os.path.exists(out_path):
        raise _CodecRunError(f"{argv[0]} produced no output file")
    return os.path.getsize(out_path)


def _cmd_bench(args) -> int:
    frames = _load_frames(args)
    cfg = _load_cfg(args)
    original_raw = vio.sequence_stream_bytes(frames)
    enc = pipeline.encode_sequence(frames, cfg)
    mixed_raw = vio.mixed_stream_bytes(enc)

    rows: list[BenchResult] = []
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="ubssvc-bench-") as workdir:
        for label, payload in (("codec", original_raw), ("ubss+codec", mixed_raw)):
            in_path = os.path.join(workdir, f"{label.replace('+', '_')}.raw")
            out_path = in_path + ".enc"
            with open(in_path, "wb") as fh:
                fh.write(payload)
            try:
                compressed = _run_codec(args.codec_cmd, in_path, out_path)
                rows.append(compression_ratio(len(original_raw), compressed, label))
            except _CodecRunError as exc:
                failures.append(f"{label}: {exc}")

    if args.porcelain:
        print(f"raw.original_bytes={len(original_raw)}")
        print(f"raw.mixed_bytes={len(mixed_raw)}")
        for row in rows:
            key = row.label.replace("+", "_")
            print(f"{key}.original_bytes={row.original_bytes}")
            print(f"{key}.compressed_bytes={row.compressed_bytes}")
            print(f"{key}.ratio={row.ratio!r}")
            print(f"{key}.improvement_percent={row.improvement_percent!r}")
    else:
        print(f"raw payload: original {len(original_raw)} bytes, mixed {len(mixed_raw)} bytes")
        for row in rows:
            print(
                f"{row.label:>10}: {row.original_bytes} -> {row.compressed_bytes} bytes, "
                f"ratio {row.ratio:.3f} ({row.improvement_percent:+.1f}%)"
            )
    if len(rows) == 2:
        ratio_of_ratios = rows[1].ratio / rows[0].ratio
        improvement = (ratio_of_ratios - 1.0) * 100.0
        if args.porcelain:
            print(f"ratio_of_ratios={ratio_of_ratios!r}")
            print(f"improvement_percent={improvement!r}")
        else:
            print(f"ratio of ratios: {ratio_of_ratios:.3f} (improvement {improvement:+.1f}%)")
    for failure in failures:
        print(f"codec failure: {failure}", file=sys.stderr)
    return 3 if failures else 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
