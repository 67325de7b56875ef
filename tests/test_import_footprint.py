"""What a process imports: the benchmark child and ``python -m repro
--help`` load no module that only figures, STM, applications, faulted
runs, report files or process pools use.

Package ``__init__``s re-export only what their importers load anyway,
and pools and verb-only modules import at use (DESIGN.md "Import only
what runs").  Each check starts a fresh interpreter, because this test
process has already imported most of ``repro``.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perf" / "child.py"

#: modules no benchmark cell and no ``--help`` needs
HEAVY = (
    "multiprocessing",
    "repro.harness.figures",
    "repro.harness.stm_bench",
    "repro.stm",
    "repro.apps",
    "repro.obs.diff",
    "repro.obs.report",
    "repro.faults.injector",
    "repro.net.reliable",
)


def child_imports() -> str:
    """The top-level import statements of ``perf/child.py``, as source."""
    source = CHILD.read_text()
    return "\n".join(
        ast.get_source_segment(source, node)
        for node in ast.parse(source).body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
    )


def loaded_after(code: str) -> list:
    """The :data:`HEAVY` modules ``code`` loads, run in a fresh
    interpreter with ``src`` and ``perf`` on the path."""
    probe = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perf')!r}]\n"
        f"{code}\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportFootprint:
    def test_benchmark_child_loads_only_what_cells_run(self):
        code = child_imports()
        assert "repro.harness.microbench" in code   # the probe is real
        assert loaded_after(code) == []

    def test_serial_shard_map_needs_no_pool(self):
        assert loaded_after(
            "from repro.shards import shard_map\n"
            "assert list(shard_map(abs, [-1, -2], workers=0)) == [1, 2]\n"
        ) == []

    def test_cli_help_loads_no_verb_modules(self):
        assert loaded_after(
            "import contextlib, io, runpy\n"
            "sys.argv = ['repro', '--help']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        runpy.run_module('repro', run_name='__main__')\n"
            "    except SystemExit:\n"
            "        pass\n"
        ) == []
