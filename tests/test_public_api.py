import ast
import dataclasses
import inspect
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ubssvc
from ubssvc import metrics, pipeline, sca


def test_every_exported_name_resolves():
    missing = [name for name in ubssvc.__all__ if not hasattr(ubssvc, name)]
    assert not missing, f"stale exports in ubssvc.__all__: {missing}"
    namespace = {}
    exec("from ubssvc import *", namespace)
    assert set(ubssvc.__all__) <= namespace.keys()


def test_codec_imports_nothing_from_the_score():
    # metrics scores the codec's output; pipeline never reaches back into it
    tree = ast.parse(inspect.getsource(pipeline))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom | ast.Import) for alias in node.names}
    assert "metrics" not in modules and "metrics" not in names
    assert (ubssvc.roundtrip_eval, ubssvc.RoundtripReport) == (metrics.roundtrip_eval, metrics.RoundtripReport)


def test_the_zero_rule_lives_in_sca():
    # pipeline hands each task's bands to sca.recover_cells, which holds the
    # zero rule: pipeline neither recovers nor makes a floor of its own
    tree = ast.parse(inspect.getsource(pipeline))
    from_sca = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "sca" for alias in node.names}
    assert from_sca == {"RecoveryStats", "_gemm", "build_hyperplanes", "check_tau", "recover_cells"}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"_norms", "recover_block", "recover_dense"}
    assert not [name for name in names if "ZERO" in name.upper()]
    assert 1e-12 not in {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert "recover_cells" not in ubssvc.__all__


def test_import_leaves_the_command_line_out():
    # the library's names do not pull in argparse, subprocess and the rest of the CLI
    src = os.path.dirname(os.path.dirname(ubssvc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, ubssvc; print(ubssvc.__file__); print('ubssvc.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines() == [ubssvc.__file__, "False"]


def test_result_records_store_each_fact_once():
    # the census and the two reports store only what nothing else fixes; the
    # counts and PSNRs derived from those fields are read-only properties
    stored = {
        sca.RecoveryStats: ["zero_columns", "forced_columns", "histogram", "lowest", "highest", "group_residuals"],
        metrics.QualityReport: ["per_frame_mse"],
        metrics.RoundtripReport: ["quality", "recovery", "matrix"],
    }
    derived = {
        sca.RecoveryStats: ["total_columns", "clean_columns"],
        metrics.QualityReport: ["per_frame_psnr", "mean_psnr", "infinite_count"],
        metrics.RoundtripReport: ["source_count", "mixed_count", "tail_count"],
    }
    for cls, names in stored.items():
        fields = dataclasses.fields(cls)
        assert [f.name for f in fields] == names
        assert all(f.default is f.default_factory is dataclasses.MISSING for f in fields)
        assert all(isinstance(getattr(cls, name), property) for name in derived[cls])
    with pytest.raises(TypeError):
        sca.RecoveryStats(0, 0, np.zeros(sca.RESIDUAL_BINS, dtype=np.intp), math.inf, -math.inf)
