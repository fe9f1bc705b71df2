"""Framework-level tests: registry, pragmas, reporters, CLI exit codes."""

import json

from repro.lint import all_rules, lint_source, main
from repro.lint.findings import PARSE_ERROR_ID
from repro.lint.pragmas import Suppressions

from tests.lint.helpers import fixture_path, lint_snippet

RULE_IDS = {"DET003", "SRV001"}

#: A DET003 finding on line 2 of any file.
VIOLATION = ("def fan(sim, xs):\n"
             "    for x in set(xs):\n"
             "        sim.schedule(0.001, x)\n")
#: An SRV001 finding on line 3, in repro.serve only.
BLOCKING = "import time\nasync def f():\n    time.sleep(1)\n"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

def test_all_expected_rules_registered():
    ids = {rule.id for rule in all_rules()}
    assert ids == RULE_IDS


def test_every_rule_documents_itself():
    for rule in all_rules():
        assert rule.summary, f"{rule.id} has no summary"
        assert rule.__doc__, f"{rule.id} has no docstring"
        assert rule.id in rule.__doc__, f"{rule.id} docstring lacks its id"


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------

def test_file_level_pragma_suppresses_everywhere():
    source = "# lint: disable-file=DET003\n" + VIOLATION
    assert [f for f in lint_snippet(source) if f.rule_id == "DET003"] == []


def test_disable_all_wildcard():
    source = VIOLATION.replace("set(xs):", "set(xs):  # lint: disable=all")
    assert lint_snippet(source) == []


def test_pragma_inside_string_literal_is_ignored():
    suppressions = Suppressions('text = "# lint: disable=DET003"\n')
    assert suppressions.line_ids == {}
    assert suppressions.file_ids == set()


def test_pragma_only_covers_its_own_line():
    source = ("def fan(sim, xs):\n"
              "    for x in set(xs):  # lint: disable=DET003\n"
              "        sim.schedule(0.001, x)\n"
              "    for y in set(xs):\n"
              "        sim.schedule(0.001, y)\n")
    findings = [f for f in lint_snippet(source) if f.rule_id == "DET003"]
    assert [f.line for f in findings] == [4]


def test_pragma_with_justification_suffix_parses():
    source = VIOLATION.replace(
        "set(xs):", "set(xs):  # lint: disable=DET003 -- fixture")
    assert [f for f in lint_snippet(source) if f.rule_id == "DET003"] == []


# ----------------------------------------------------------------------
# runner details
# ----------------------------------------------------------------------

def test_syntax_error_is_reported_not_raised():
    findings = lint_source("def broken(:\n", "src/repro/sim/broken.py")
    assert [f.rule_id for f in findings] == [PARSE_ERROR_ID]


def test_file_context_locates_repro_package():
    import ast

    from repro.lint.context import FileContext

    ctx = FileContext("src/repro/sim/engine.py", "", ast.parse(""))
    assert ctx.package_parts == ("sim", "engine.py")
    assert ctx.in_subpackage("sim")
    assert not ctx.in_subpackage("core")

    fixture = FileContext("tests/lint/fixtures/repro/sim/x.py", "",
                          ast.parse(""))
    assert fixture.package_parts == ("sim", "x.py")

    outside = FileContext("tests/helpers.py", "", ast.parse(""))
    assert outside.package_parts is None
    assert not outside.in_subpackage("sim")


def test_rules_scope_by_virtual_path():
    # identical source, different location: only the repro copy is hit
    inside = lint_snippet(BLOCKING, path="src/repro/serve/x.py")
    outside = lint_snippet(BLOCKING, path="benchmarks/x.py")
    assert any(f.rule_id == "SRV001" for f in inside)
    assert not any(f.rule_id == "SRV001" for f in outside)


# ----------------------------------------------------------------------
# CLI and reporters
# ----------------------------------------------------------------------

def test_cli_nonzero_on_fixture_violation(capsys):
    path = str(fixture_path("det003_set_iteration.py"))
    assert main([path, "--select", "DET003"]) == 1
    out = capsys.readouterr().out
    assert "DET003" in out
    assert "det003_set_iteration.py" in out


def test_cli_zero_on_clean_file(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main([str(clean)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_missing_path_is_a_usage_error(capsys):
    assert main(["definitely/not/a/path.py"]) == 2
    capsys.readouterr()


def test_cli_unknown_rule_id_is_a_usage_error(capsys):
    # a typo'd --select must not silently run zero rules and "pass"
    assert main(["src", "--select", "DET999"]) == 2
    assert "DET999" in capsys.readouterr().out
    assert main(["src", "--ignore", "nope1"]) == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out


def test_json_reporter_schema(capsys):
    path = str(fixture_path("det003_set_iteration.py"))
    assert main([path, "--select", "DET003", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 1
    assert report["files_checked"] == 1
    assert isinstance(report["findings"], list) and report["findings"]
    for entry in report["findings"]:
        assert set(entry) == {"path", "line", "col", "rule", "severity",
                              "message"}
        assert entry["rule"] == "DET003"
        assert entry["severity"] in ("error", "warning")
        assert isinstance(entry["line"], int) and entry["line"] >= 1


def test_ignore_flag_drops_rule(capsys):
    path = str(fixture_path("det003_set_iteration.py"))
    assert main([path, "--ignore", "DET003"]) == 0
    capsys.readouterr()
