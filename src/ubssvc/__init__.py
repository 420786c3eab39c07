"""Video compression by pixelwise frame mixing with sparse-recovery decoding.

Groups of n consecutive frames are mixed down to m < n frames by a known
matrix before a conventional encoder sees them; the decoder gets the
sources back by classifying wavelet-coefficient columns onto the subspaces
spanned by the matrix columns.
"""
from .metrics import QualityReport, RoundtripReport, roundtrip_eval, sequence_report
from .mixcore import (
    MixingMatrix,
    as_sequence,
    default_mixing_matrix,
    generalized_inverse,
    snap_to_8bit,
)
from .pipeline import (
    CodecConfig,
    EncodedSequence,
    decode_sequence,
    encode_sequence,
    load_config,
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
    "CodecConfig",
    "ContainerError",
    "EncodedSequence",
    "HyperplaneSet",
    "MixingMatrix",
    "QualityReport",
    "RecoveryStats",
    "RoundtripReport",
    "as_sequence",
    "build_hyperplanes",
    "decode_sequence",
    "default_mixing_matrix",
    "encode_sequence",
    "generalized_inverse",
    "generate",
    "haar_forward",
    "haar_inverse",
    "load_config",
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
