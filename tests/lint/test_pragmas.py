"""Suppression pragmas: scoping, usage tracking, dead detection."""

from repro.lint.pragmas import Suppressions


def test_line_pragma_suppresses_only_its_line_and_rule():
    supp = Suppressions(
        "x = 1\n"
        "y = rng()  # lint: disable=DET003\n"
        "z = rng()\n")
    assert supp.is_suppressed("DET003", 2)
    assert not supp.is_suppressed("DET003", 3)
    assert not supp.is_suppressed("SRV001", 2)


def test_file_pragma_covers_every_line():
    supp = Suppressions("# lint: disable-file=SRV001\nx = a_ms + b_s\n")
    assert supp.is_suppressed("SRV001", 1)
    assert supp.is_suppressed("srv001", 99)


def test_disable_all_wildcard():
    supp = Suppressions("bad()  # lint: disable=all\n")
    assert supp.is_suppressed("DET003", 1)
    assert supp.is_suppressed("CONC003", 1)


def test_pragma_inside_string_literal_is_ignored():
    supp = Suppressions('s = "# lint: disable=DET003"\nr = rng()\n')
    assert not supp.is_suppressed("DET003", 1)
    assert supp.unused() == []


def test_unused_reports_pragmas_that_never_fired():
    supp = Suppressions(
        "# lint: disable-file=SRV001\n"
        "a()  # lint: disable=DET003,XYZ001\n")
    assert supp.is_suppressed("DET003", 2)
    assert supp.unused() == [(0, "srv001"), (2, "xyz001")]


def test_unused_is_empty_once_everything_fires():
    supp = Suppressions("a()  # lint: disable=DET003\n")
    supp.is_suppressed("DET003", 1)
    assert supp.unused() == []


def test_multiple_ids_and_justification_text_parse():
    supp = Suppressions(
        "a()  # lint: disable=DET003,SRV001 -- sorted upstream\n")
    assert supp.is_suppressed("DET003", 1)
    assert supp.is_suppressed("SRV001", 1)
