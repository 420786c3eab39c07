import ast
import inspect
import os
import subprocess
import sys

import ubssvc
from ubssvc import metrics, pipeline


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


def test_import_leaves_the_command_line_out():
    # the library's names do not pull in argparse, subprocess and the rest of the CLI
    src = os.path.dirname(os.path.dirname(ubssvc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, ubssvc; print(ubssvc.__file__); print('ubssvc.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines() == [ubssvc.__file__, "False"]
