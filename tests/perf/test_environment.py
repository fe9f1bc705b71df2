"""Cross-machine baseline detection for wall-clock comparisons."""

from repro.perf import environment_mismatches

HOST = {"python": "3.11.9", "machine": "x86_64", "benchmarks": []}


def test_same_environment_is_silent():
    assert environment_mismatches(HOST, dict(HOST)) == []


def test_differing_fields_are_each_flagged():
    other = dict(HOST, python="3.12.1", machine="arm64")
    notes = environment_mismatches(HOST, other)
    assert len(notes) == 2
    assert any("python" in n and "3.12.1" in n and "3.11.9" in n
               for n in notes)
    assert any("machine" in n and "arm64" in n for n in notes)


def test_absent_fields_are_not_flagged():
    # pre-versioned baselines recorded no environment at all
    assert environment_mismatches(HOST, {"benchmarks": []}) == []
    assert environment_mismatches({}, HOST) == []
    partial = {"python": HOST["python"]}  # no machine field
    assert environment_mismatches(HOST, dict(partial, machine="")) == []


def test_cpu_count_differences_are_flagged_per_workload_row():
    ours = {"workloads": {"e01_staggered": {"cpus": 2},
                          "e11_tcp": {"cpus": 2}}}
    theirs = {"workloads": {"e01_staggered": {"cpus": 1},
                            "e11_tcp": {"cpus": 2}}}
    (note,) = environment_mismatches(ours, theirs)
    assert note == ("cpus: baseline recorded 1 for e01_staggered, "
                    "this host reports 2")
    # rows recorded before cpus was stamped are not flagged
    assert environment_mismatches(
        ours, {"workloads": {"e01_staggered": {}}}) == []
