"""Command-line surface.

Subcommands: validate-matrix, gen, mix, separate, roundtrip, psnr, bench.
Exit codes: 0 success, 1 usage error, 2 data/format error, 3 external
command failure, 141 (128 + SIGPIPE) when the reader of standard output
closed it early, as ``| head`` does. ``--porcelain`` switches reports to
key=value lines. ``separate`` decodes with the matrix and quantization its
container holds; its ``--config`` and ``--tau`` give only tau. ``bench``
reports each codec's ratio against the original frames' raw bytes, and
their ratio of ratios. ``import ubssvc`` does not load this module.
"""
from __future__ import annotations

import argparse
import math
import os
import shlex
import subprocess
import sys
import tempfile
from dataclasses import replace

from . import metrics, pipeline, synth, vio
from .mixcore import default_mixing_matrix, mixing_evidence, mixing_fault
from .pipeline import QUANT_AFFINE, QUANT_FLOAT, CodecConfig
from .sca import QUANTILE_PERCENTS

_QUANT_FLAG = {"float": QUANT_FLOAT, "affine8": QUANT_AFFINE}


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

    def add(name, func, help_text, frames=None):
        """A subcommand that runs ``func``; ``frames`` is its frame source, "path" or "path or preset"."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--porcelain", action="store_true", help="key=value output")
        if frames:
            either = frames == "path or preset"
            source = p.add_mutually_exclusive_group(required=True) if either else p
            source.add_argument(
                "input", nargs="?" if either else None,
                help="PGM file/pattern/directory, or raw file with --width/--height"
                + ("; give exactly one of this path and --preset" if either else ""),
            )
            if either:
                source.add_argument("--preset", choices=synth.PRESETS, help="generate the frames instead")
                p.add_argument("--seed", type=int, help="seed of --preset (default 1)")
            p.add_argument("--width", type=int)
            p.add_argument("--height", type=int)
            p.add_argument("--frames", type=int, help="frame count of raw input or --preset")
            p.add_argument("--config")
        return p

    p = add("validate-matrix", _cmd_validate_matrix,
            "check the mixing matrix: submatrix determinants, Gram conditioning")
    p.add_argument("--config", help="config file (defaults to the built-in matrix)")

    p = add("gen", _cmd_gen, "write a deterministic synthetic PGM sequence")
    p.add_argument("--preset", default="sparse-detail", choices=synth.PRESETS)
    p.add_argument("--frames", type=int, default=40)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True, help="output pattern, e.g. 'dir/f_{i:04d}.pgm'")

    p = add("mix", _cmd_mix, "encode a sequence into a container", frames="path")
    p.add_argument("--quant", choices=sorted(_QUANT_FLAG))
    p.add_argument("--out", required=True, help="container path")

    p = add("separate", _cmd_separate, "decode a container back into frames")
    p.add_argument("input", help="container path")
    p.add_argument("--config", help="config file; only its tau is read, as the container fixes the rest")
    p.add_argument("--tau", type=float)
    p.add_argument("--out", required=True, help="PGM output pattern")

    p = add("roundtrip", _cmd_roundtrip, "encode + decode in memory and report quality",
            frames="path or preset")
    p.add_argument("--tau", type=float)
    p.add_argument("--quant", choices=sorted(_QUANT_FLAG))

    p = add("psnr", _cmd_psnr, "score a reconstructed sequence against a reference")
    p.add_argument("reference")
    p.add_argument("test")

    p = add("bench", _cmd_bench, "compare an external codec on original vs mixed raw streams",
            frames="path or preset")
    p.add_argument(
        "--quant", choices=sorted(_QUANT_FLAG), default="affine8",
        help="mixed-stream export precision (affine8 = one byte per pixel)",
    )
    p.add_argument(
        "--codec-cmd", required=True, help="command template run on each stream, e.g. 'cp {in} {out}'"
    )

    return parser


def _load_cfg(args) -> CodecConfig:
    """The ``--config`` file's config, else the built-in one, with the flags applied."""
    cfg = pipeline.load_config(args.config) if args.config else CodecConfig()
    overrides = {}
    if getattr(args, "tau", None) is not None:
        overrides["tau"] = args.tau
    if args.quant is not None:
        overrides["quantization"] = _QUANT_FLAG[args.quant]
    return replace(cfg, **overrides)


def _load_inputs(args):
    """The frames and the codec config; ``--preset`` frames are made for the config's matrix."""
    cfg = _load_cfg(args)
    if args.input is not None:
        if getattr(args, "seed", None) is not None:  # mix takes no --seed
            raise ValueError("--seed is for --preset, not an input path")
        return vio.read_sequence(args.input, width=args.width, height=args.height, count=args.frames), cfg
    count = args.frames if args.frames is not None else 40
    width = 64 if args.width is None else args.width
    height = 64 if args.height is None else args.height
    m, n = cfg.matrix.rows, cfg.matrix.cols
    seed = 1 if args.seed is None else args.seed
    return synth.generate(args.preset, count, width, height, seed, group=n, max_active=m - 1), cfg


def _cmd_validate_matrix(args) -> int:
    parsed = pipeline.parse_config(args.config) if args.config else {}
    entries = parsed["matrix"] if "matrix" in parsed else default_mixing_matrix().entries
    evidence = subsets, magnitudes, gram_cond = mixing_evidence(entries)
    failure = mixing_fault(entries, evidence)
    # Python floats and ints print as "0.5" and "(0, 2)", numpy's as "np.float64(0.5)"
    dets = list(zip(map(tuple, subsets.tolist()), magnitudes.tolist()))
    min_det = min((mag for _, mag in dets), default=math.nan)
    if args.porcelain:
        for cols, mag in dets:
            print(f"det.{'_'.join(map(str, cols))}={mag!r}")
        print(f"min_abs_determinant={min_det!r}")
        print(f"gram_cond={gram_cond!r}")
        print(f"passed={'false' if failure else 'true'}")
        if failure:
            print(f"reason={failure}")
    else:
        print(f"{entries.shape[0]}x{entries.shape[1]} matrix")
        for cols, mag in dets:
            print(f"  columns {cols}: |det| = {mag:.6f}")
        print(f"Gram matrix condition number: {gram_cond:.6g}")
        print(f"result: FAIL ({failure})" if failure else f"result: PASS (min |det| = {min_det:.6f})")
    return 2 if failure else 0


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
    frames, cfg = _load_inputs(args)
    enc = pipeline.encode_sequence(frames, cfg)
    size = vio.write_container(enc, args.out)
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
    # the container fixes the matrix and quantization, so a config file's
    # matrix is neither built nor checked; it and --tau give tau
    parsed = pipeline.parse_config(args.config) if args.config else {}
    try:
        cfg = CodecConfig(tau=parsed.get("tau", pipeline.DEFAULT_TAU))
    except ValueError as exc:  # only a config file's tau can be bad here
        raise ValueError(f"{args.config}: {exc}") from None
    cfg = cfg if args.tau is None else replace(cfg, tau=args.tau)
    decoded, stats = pipeline.decode_sequence(vio.read_container(args.input), cfg)
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
            f"relative residual quantiles ({'/'.join(map(str, QUANTILE_PERCENTS))}%): "
            + " ".join(f"{v:.3e}" for v in q)
        )


def _print_stats_porcelain(stats) -> None:
    print(f"columns.total={stats.total_columns}")
    print(f"columns.zero={stats.zero_columns}")
    print(f"columns.clean={stats.clean_columns}")
    print(f"columns.forced={stats.forced_columns}")
    for percent, value in zip(QUANTILE_PERCENTS, stats.residual_quantiles()):
        print(f"residual.q{percent}={value!r}")


def _cmd_roundtrip(args) -> int:
    frames, cfg = _load_inputs(args)
    report = metrics.roundtrip_eval(frames, cfg)
    if args.porcelain:
        print(f"sources={report.source_count}")
        print(f"mixed={report.mixed_count}")
        print(f"tail={report.tail_count}")
        print(f"decoded={report.source_count}")
        _print_stats_porcelain(report.recovery)
        print(report.quality.to_porcelain())
    else:
        print(
            f"sources: {report.source_count}, mixed: {report.mixed_count}, "
            f"tail: {report.tail_count}, decoded: {report.source_count}"
        )
        _print_stats(report.recovery)
        print(report.quality.to_table())
    return 0


def _cmd_psnr(args) -> int:
    ref = vio.read_sequence(args.reference)
    test = vio.read_sequence(args.test)
    report = metrics.sequence_report(ref, test)
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
    size = os.path.getsize(out_path)
    if not size:
        raise _CodecRunError(f"{argv[0]} produced an empty output file")
    return size


def _cmd_bench(args) -> int:
    frames, cfg = _load_inputs(args)
    original_raw = vio.sequence_stream_bytes(frames)
    enc = pipeline.encode_sequence(frames, cfg)
    mixed_raw = vio.mixed_stream_bytes(enc)

    rows: list[tuple[str, int]] = []  # (label, compressed bytes)
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="ubssvc-bench-") as workdir:
        for label, payload in (("codec", original_raw), ("ubss+codec", mixed_raw)):
            in_path = os.path.join(workdir, f"{label.replace('+', '_')}.raw")
            out_path = in_path + ".enc"
            with open(in_path, "wb") as fh:
                fh.write(payload)
            try:
                rows.append((label, _run_codec(args.codec_cmd, in_path, out_path)))
            except _CodecRunError as exc:
                failures.append(f"{label}: {exc}")

    # each ratio is against the original frames' raw bytes
    original = len(original_raw)
    ratios = [original / compressed for _, compressed in rows]
    if args.porcelain:
        print(f"raw.original_bytes={original}")
        print(f"raw.mixed_bytes={len(mixed_raw)}")
        for (label, compressed), ratio in zip(rows, ratios):
            key = label.replace("+", "_")
            print(f"{key}.original_bytes={original}")
            print(f"{key}.compressed_bytes={compressed}")
            print(f"{key}.ratio={ratio!r}")
            print(f"{key}.improvement_percent={(ratio - 1.0) * 100.0!r}")
    else:
        print(f"raw payload: original {original} bytes, mixed {len(mixed_raw)} bytes")
        for (label, compressed), ratio in zip(rows, ratios):
            print(
                f"{label:>10}: {original} -> {compressed} bytes, "
                f"ratio {ratio:.3f} ({(ratio - 1.0) * 100.0:+.1f}%)"
            )
    if len(rows) == 2:
        ratio_of_ratios = ratios[1] / ratios[0]
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early; point stdout at the null device so that
        # the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):  # a stdout with no file descriptor
            pass
        finally:
            os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the size it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
