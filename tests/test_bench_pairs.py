"""The perf-record script: it rejects a mistyped --claim or --trace before it exports or runs anything, reads
each side's package size from the files (code lines apart from prose), and decides regressions and the claim
from the runs alone."""

import importlib.util
import statistics
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
    # lines as wc -l counts them (newlines); code lines without the docstring and blank lines, the
    # unterminated last line included; a, b and os, not the __future__ import
    assert _bench_pairs().source_size(tmp_path) == {"src_lines": 11 + 2, "src_code_lines": 7 + 3,
                                                    "init_imported_names": 3}


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    source = '''"""Module
doc."""

# a comment
x = """not a
docstring"""  # an assigned string is code, both of its lines


class A:
    \'\'\'Class doc.\'\'\'

    def f(self):
        """Function

        doc.
        """
        return (1,
                2)  # each line of a continued statement
'''
    assert _bench_pairs().code_lines(source) == 2 + 1 + 1 + 2


def _entry(parent, change, better="higher"):
    """A workload/metric entry of a record as the script writes it, from synthetic runs."""
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    return {"better": better, "parent": {"iqr": q3 - q1}, "runs_parent": parent, "runs_change": change}


_FLAT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]  # parent IQR 1.0
_OPS = {side: {"failed": [0] * 10, "correct": True} for side in ("parent", "change")}


@pytest.mark.parametrize("change, better, regressed", [
    ([v * 0.9 for v in _FLAT], "higher", True),  # 10% lower throughput in every pair
    ([v * 1.1 for v in _FLAT], "lower", True),  # 10% more time in every pair
    ([v - 0.5 for v in _FLAT], "higher", False),  # loses every pair, but by less than the parent's IQR
    ([v * 0.9 for v in _FLAT[:8]] + [v * 1.1 for v in _FLAT[8:]], "higher", False),  # loses only 8 of 10 pairs
    (list(_FLAT), "higher", False),  # ties count for neither side
    ([v * 1.1 for v in _FLAT], "higher", False),  # a gain is no regression
], ids=["slower", "longer", "within-iqr", "eight-of-ten", "ties", "gain"])
def test_a_clear_loss_is_a_regression(change, better, regressed):
    workloads = {"w": {"m": _entry(_FLAT, change, better)}}
    assert _bench_pairs().decide(workloads, _OPS, None) == {"regressions": ["w/m"] if regressed else []}


def test_a_claim_holds_only_when_it_wins_clearly_and_nothing_regresses():
    decide = _bench_pairs().decide
    gain, loss, flat = _entry(_FLAT, [v * 1.1 for v in _FLAT]), _entry(_FLAT, [v * 0.9 for v in _FLAT]), _entry(_FLAT, _FLAT)
    assert decide({"a": {"ops": gain}, "b": {"ops": flat}}, _OPS, "a/ops") == {"regressions": [], "claim_holds": True}
    assert decide({"a": {"ops": flat}}, _OPS, "a/ops")["claim_holds"] is False
    assert decide({"a": {"ops": gain}, "b": {"ops": loss}}, _OPS, "a/ops") == {"regressions": ["b/ops"],
                                                                              "claim_holds": False}
    failing = {**_OPS, "change": {"failed": [0] * 9 + [1], "correct": True}}
    assert decide({"a": {"ops": gain}}, failing, "a/ops")["claim_holds"] is False
    wrong = {**_OPS, "parent": {"failed": [0] * 10, "correct": False}}
    assert decide({"a": {"ops": gain}}, wrong, "a/ops")["claim_holds"] is False
