"""The perf-record script: it rejects a mistyped --claim or --trace before it exports or runs anything, and reads
each side's package size from the files."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flags", [["--claim", "paper-grid/nope"], ["--claim", "nope/ops_per_s"],
                                   ["--claim", "paper-grid"], ["--trace", "paper-grd"]],
                         ids=["unknown-metric", "unknown-workload", "no-metric", "unknown-trace"])
def test_unknown_claim_or_trace_exits_before_any_subprocess(monkeypatch, capsys, flags):
    def no_subprocess(*args, **kwargs):
        raise AssertionError(f"started a subprocess: {args}")

    monkeypatch.setattr(subprocess, "run", no_subprocess)
    with pytest.raises(SystemExit) as exit_:
        _bench_pairs().main(["--label", "never-written", *flags])
    assert exit_.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not (SCRIPT.parents[1] / "BENCH_never-written.json").exists()


def test_source_size_reads_lines_and_imported_names_from_the_files(tmp_path):
    package = tmp_path / "src" / "sketchsim"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('"""Doc."""\n\nfrom __future__ import annotations\n\n'
                                         "from .core import (\n    a,\n    b,\n)\nimport os\n\n"
                                         "__version__ = '0'\n")
    (package / "core.py").write_text("a = 1\nb = 2\nraise SystemExit('imported')")  # no final newline
    (package / "notes.txt").write_text("not\ncounted\n")
    # lines as wc -l counts them (newlines); a, b and os, not the __future__ import
    assert _bench_pairs().source_size(tmp_path) == {"src_lines": 11 + 2, "init_imported_names": 3}
