"""Video compression by pixelwise frame mixing with sparse-recovery decoding.

Groups of n consecutive frames are mixed down to m < n frames by a known
matrix before a conventional encoder sees them; the decoder gets the
sources back by classifying wavelet-coefficient columns onto the subspaces
spanned by the matrix columns.
"""
from .cli import BenchResult, compression_ratio
from .metrics import QualityReport, sequence_report
from .mixcore import (
    MixingMatrix,
    SparsityReport,
    as_sequence,
    check_sparsity,
    default_mixing_matrix,
    generalized_inverse,
    mix_block,
    snap_to_8bit,
)
from .pipeline import (
    CodecConfig,
    EncodedSequence,
    RoundtripReport,
    decode_sequence,
    encode_sequence,
    load_config,
    roundtrip_eval,
)
from .sca import (
    HyperplaneSet,
    RecoveryStats,
    build_hyperplanes,
    recover_block,
    recover_dense,
)
from .synth import generate
from .vio import (
    ContainerError,
    read_container,
    read_sequence,
    write_container,
    write_sequence,
)
from .wavelet import BANDS, haar_forward, haar_inverse

__version__ = "0.1.0"

__all__ = [
    "BANDS",
    "BenchResult",
    "CodecConfig",
    "ContainerError",
    "EncodedSequence",
    "HyperplaneSet",
    "MixingMatrix",
    "QualityReport",
    "RecoveryStats",
    "RoundtripReport",
    "SparsityReport",
    "as_sequence",
    "build_hyperplanes",
    "check_sparsity",
    "compression_ratio",
    "decode_sequence",
    "default_mixing_matrix",
    "encode_sequence",
    "generalized_inverse",
    "generate",
    "haar_forward",
    "haar_inverse",
    "load_config",
    "mix_block",
    "read_container",
    "read_sequence",
    "recover_block",
    "recover_dense",
    "roundtrip_eval",
    "sequence_report",
    "snap_to_8bit",
    "write_container",
    "write_sequence",
]
