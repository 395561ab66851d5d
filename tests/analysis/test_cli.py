"""CLI contract: exit codes, JSON output, rule listing, baseline errors."""

import json
import os

import pytest

from repro.analysis.cli import main

from tests.analysis.conftest import REPO_ROOT, fixture_path

BAD_UNITS = fixture_path("costmodel", "bad_units.py")
GOOD_UNITS = fixture_path("costmodel", "good_units.py")


def test_clean_tree_exits_zero(capsys):
    code = main([GOOD_UNITS, "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 finding(s)" in out


def test_findings_exit_one(capsys):
    code = main([BAD_UNITS, "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert "unit-safety" in out


def test_repo_scan_with_default_baseline_is_clean(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    code = main([os.path.join("src", "repro")])
    capsys.readouterr()
    assert code == 0


def test_json_format_parses(capsys):
    code = main([BAD_UNITS, "--no-baseline", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["tool"] == "repro.analysis"
    assert payload["summary"]["unbaselined"] > 0


def test_rules_subset(capsys):
    code = main([BAD_UNITS, "--no-baseline", "--rules", "determinism"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 finding(s)" in out


def test_unknown_rule_exits_two(capsys):
    code = main([BAD_UNITS, "--rules", "nope"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown rule" in err


def test_missing_baseline_file_exits_two(capsys):
    code = main([BAD_UNITS, "--baseline", "/nonexistent/baseline.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "baseline not found" in err


def test_malformed_baseline_exits_two(tmp_path, capsys):
    bad = tmp_path / "analysis-baseline.json"
    bad.write_text(json.dumps({"version": 1, "suppressions": [{}]}))
    code = main([BAD_UNITS, "--baseline", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "missing or empty field" in err


KEPT_RULES = [
    "unit-safety",
    "determinism",
    "vectorization",
    "simulated-coherence",
    "executor-boundary",
    "lock-discipline",
]


def test_list_rules(capsys):
    code = main(["--list-rules"])
    out = capsys.readouterr().out
    assert code == 0
    listed = [line.split(":")[0] for line in out.splitlines()
              if not line.startswith(" ")]
    assert listed == KEPT_RULES


def test_cache_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--cache", "x", "src"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache" in capsys.readouterr().err


@pytest.mark.parametrize("rule", ["fault-hook-coverage", "manifest-schema"])
def test_retired_rules_are_unknown(capsys, rule):
    """These invariants moved to runtime tests; selecting them fails and
    names every rule that still exists."""
    code = main([BAD_UNITS, "--rules", rule])
    err = capsys.readouterr().err
    assert code == 2
    assert f"unknown rule(s) ['{rule}']" in err
    assert "valid rules: " + ", ".join(sorted(KEPT_RULES)) in err
