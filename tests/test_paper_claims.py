"""The paper's claims, checked on the experiment suite's own results.

:data:`repro.exec.suite.SUITE` is the one place an experiment is
defined.  The ``results`` fixture runs it once at full scale, with the
probe series some claims read (:data:`SERIES`), plus :data:`EXTRA`: the
ablations no suite row runs.  Each row of :data:`CLAIMS` names its
experiment, the task ids it reads, the statement it checks, and a
predicate over those tasks' :class:`~repro.exec.pool.ExecResult` —
their metrics, probe series, domain counters and health report.  Claims
about the max-min allocation read the health report's oracle.

Two rows are strict xfails: Section-4 findings the TCP substrate does
not reproduce yet (ROADMAP item 5).  A fix to the substrate makes them
pass, and the strict mark then fails until the row is flipped.

Claims no registry spec can express stay plain tests beside their
tier's unit tests (the quench and mark counters and the plain-RED
baseline in ``tests/tcp/test_tcp_network.py``, the synthetic MACR ripple
in ``tests/core/test_macr.py``).

Run alone with ``pytest tests/test_paper_claims.py`` (about 35 s on two
CPUs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import pytest

from repro.analysis import convergence_time, max_min_ratio, queue_stats
from repro.core import (phantom_equilibrium_rate,
                        phantom_equilibrium_utilization)
from repro.exec import SUITE, ExecResult, TaskSpec, run_tasks, suite_specs

#: Link rate (Mb/s) and utilization factor of every ATM configuration.
C, F = 150.0, 5.0
#: One cell in Nrm = 32 is an RM cell: data rates are 31/32 of ACR.
DATA = 31 / 32
#: When the staggered configurations' second session joins (s).
STAGGER = 0.03
#: The single trunk port of the one-bottleneck ATM configurations.
QUEUE, MACR = "S1->S2.queue", "S1->S2.macr"

#: Probe series the claims read, by task id (digests travel regardless).
SERIES: dict[str, tuple[str, ...]] = {
    "E01": ("s0.acr", QUEUE),
    "E02": ("greedy0.rate", "onoff0.rate"),
    "E05": ("s0.acr",),
    "E06": ("s0.acr",),
    "E07-dev": (MACR,),
    "E07-nodev": (MACR,),
    "E08": ("base.acr",),
    "E20-dt0.5ms": ("s0.acr",),
    "E20-dt1ms": ("s0.acr",),
    "E20-dt2ms": ("s0.acr",),
    "E23": ("s0.acr",),
}

#: Ablations no suite row runs, as registry specs.
EXTRA: tuple[TaskSpec, ...] = (
    # E10: the literal drop-everything reading of Selective Discard
    TaskSpec("E10-dropall", "tcp.rtt",
             {"policy_params": {"drop_gap": 0.0}, "duration": 30.0}),
    # E16-E17: CAPC beside Phantom on the ramp and on the parking lot
    TaskSpec("E16-capc", "atm.staggered",
             {"algorithm": "capc", "duration": 0.25},
             probes=("s0.acr", QUEUE)),
    TaskSpec("E17-capc", "atm.parking",
             {"algorithm": "capc", "duration": 0.3}),
    # E20: the filter gains, beside the suite's Δt rows
    TaskSpec("E20-ainc0.125", "atm.staggered",
             {"algorithm_params": {"alpha_inc": 1 / 8}, "duration": 0.25},
             probes=("s0.acr",)),
    TaskSpec("E20-ainc0.03125", "atm.staggered",
             {"algorithm_params": {"alpha_inc": 1 / 32},
              "duration": 0.25}, probes=("s0.acr",)),
    TaskSpec("E20-adec0.125", "atm.staggered",
             {"algorithm_params": {"alpha_dec": 1 / 8}, "duration": 0.25},
             probes=("s0.acr",)),
    # E24: each state-space family at eight sessions
    *(TaskSpec(f"E24-{algorithm}-n8", "atm.staggered",
               {"algorithm": algorithm, "n_sessions": 8, "stagger": 0.01,
                "duration": 0.3})
      for algorithm in ("phantom", "eprca", "erica")),
)


@pytest.fixture(scope="session")
def results() -> dict[str, ExecResult]:
    specs = [replace(spec, probes=SERIES.get(spec.task_id, ()))
             for spec in suite_specs(scale=1.0)]
    return {res.spec.task_id: res
            for res in run_tasks([*specs, *EXTRA])}


# ----------------------------------------------------------------------
# readers
# ----------------------------------------------------------------------
def close(measured: float, expected: float, rel: float) -> bool:
    """``measured`` within ``rel`` of ``expected`` (pytest.approx's
    relative test)."""
    return abs(measured - expected) <= rel * abs(expected)


def share(n: int, capacity: float = C) -> float:
    """Phantom's closed-form grant for ``n`` greedy sessions."""
    return phantom_equilibrium_rate(capacity, n, F)


def rates(res: ExecResult, prefix: str = "rates.") -> dict[str, float]:
    metrics = res.payload["metrics"]
    return {name[len(prefix):]: value for name, value in metrics.items()
            if name.startswith(prefix)}


def goodputs(res: ExecResult) -> dict[str, float]:
    return rates(res, "goodput.")


def directions(res: ExecResult) -> tuple[float, float]:
    """Summed east-bound and west-bound goodput of a two-way run."""
    flows = goodputs(res)
    return tuple(sum(rate for name, rate in flows.items()
                     if name.startswith(side)) for side in ("east", "west"))


def long_share(res: ExecResult) -> float:
    """The parking lot's long session over its slowest cross session."""
    found = rates(res) or goodputs(res)
    crosses = [rate for name, rate in found.items()
               if name.startswith("cross")]
    return found["long"] / min(crosses)


def acr_final(res: ExecResult, vc: str) -> float:
    return float(res.payload["counters"][f"{vc}.acr_final"])


def oracle(res: ExecResult) -> dict[str, float]:
    """The health report's phantom-adjusted max-min allocation."""
    return res.payload["health"]["oracle"]


def oracle_gaps(res: ExecResult) -> dict[str, float]:
    """Each session's steady relative gap to the oracle, as the health
    report's fairness_gap check judged it."""
    (gap,) = [check for check in res.payload["health"]["checks"]
              if check["name"] == "fairness_gap"]
    assert gap["verdict"] != "not-applicable", gap["evidence"]
    return gap["evidence"]["rel_error"]


def rms(values) -> float:
    values = list(values)
    return math.sqrt(sum(v * v for v in values) / len(values))


def duration(res: ExecResult) -> float:
    return res.spec.params["duration"]


def last_half_mean(res: ExecResult, probe: str) -> float:
    return res.probe(probe).window(duration(res) / 2, duration(res)).mean()


def ripple(res: ExecResult, probe: str) -> float:
    """Peak-to-peak of a series resampled at 1 ms over the last quarter
    of the run, the window every steady metric of the worker reads."""
    start, end = 0.75 * duration(res), duration(res)
    ticks = [start + i * 1e-3 for i in range(round((end - start) / 1e-3))]
    values = res.probe(probe).resample(ticks)
    return max(values) - min(values)


def settle(res: ExecResult, probe: str, start: float, end: float,
           target: float, tolerance: float, **kwargs) -> float:
    """Time after ``start`` for a series to enter and stay in the band."""
    window = res.probe(probe).window(start, end)
    return convergence_time(window, target=target, tolerance=tolerance,
                            **kwargs) - start


def ramp(res: ExecResult, level: float) -> float:
    """When s0's ACR first reaches ``level``."""
    return next((t for t, v in res.probe("s0.acr") if v >= level),
                math.inf)


def queue(res: ExecResult, start: float, end: float) -> dict[str, float]:
    return queue_stats(res.probe(QUEUE), start, end)


def data_total(res: ExecResult) -> float:
    return sum(rates(res).values())


# ----------------------------------------------------------------------
# the claims
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Claim:
    """One paper statement, checked on the results of ``tasks``."""

    experiment: str
    #: Short test id, unique within the experiment.
    name: str
    #: Task ids whose results ``holds`` takes, in order.
    tasks: tuple[str, ...]
    statement: str
    holds: Callable[..., bool]
    #: Why a known open finding keeps this row from holding yet.
    xfail: str | None = None


#: f of the E19 rows whose loop gain α_inc·(n·f + 1) stays under the
#: stability bound of 2 (α_inc = 1/16, n = 2); f = 20 sits past it.
STABLE_FACTORS = (2, 5, 10)
E19_ROWS = tuple(f"E19-f{f}" for f in STABLE_FACTORS)
E20_ROWS = ("E20-dt0.5ms", "E20-dt1ms", "E20-dt2ms", "E20-ainc0.125",
            "E20-ainc0.03125", "E20-adec0.125")
E24_ROWS = ("E01", "E14", "E24", "E24-phantom-n8", "E24-eprca-n8",
            "E24-erica-n8")
#: The staggered-start scenario under each of the six switch
#: algorithms: Phantom, binary Phantom, EPRCA, APRC, CAPC and ERICA.
DIGEST_ROWS = ("E01", "E05", "E14", "E15-staggered", "E16-capc", "E24")

CLAIMS: tuple[Claim, ...] = (
    # -- E01, Fig. 2-3: two staggered sessions ---------------------------
    Claim("E01", "alone", ("E01",),
          "alone, the first session nears f·C/(f+1) = 125 Mb/s (15%)",
          lambda r: close(r.probe("s0.acr").value_at(STAGGER - 0.001),
                          share(1), 0.15)),
    Claim("E01", "shares", ("E01",),
          "both sessions end within 10% of their max-min share",
          lambda r: all(close(acr_final(r, vc), rate, 0.1)
                        for vc, rate in oracle(r).items())),
    Claim("E01", "settles", ("E01",),
          "the first session settles within 10% of its share less "
          "than 50 ms after the join",
          lambda r: settle(r, "s0.acr", STAGGER, duration(r),
                           oracle(r)["s0"], 0.1) < 0.05),
    Claim("E01", "fair", ("E01",),
          "the steady rates are equal: Jain index above 0.99",
          lambda r: r.metric("jain") > 0.99),
    Claim("E01", "queue-peak", ("E01",),
          "the join's transient queue stays under 500 cells",
          lambda r: r.metric("queue.max") < 500),
    Claim("E01", "queue-drains", ("E01",),
          "the queue drains: mean under 50 cells over the last 50 ms",
          lambda r: queue(r, 0.2, duration(r))["mean"] < 50),
    # -- E02, Fig. 4: greedy beside on/off sessions ----------------------
    Claim("E02", "greedy-exploits-idle", ("E02",),
          "over the last half the greedy session averages more than "
          "1.1 × the all-active share f·C/(3f+1)",
          lambda r: last_half_mean(r, "greedy0.rate")
          > 1.1 * share(3) * DATA),
    Claim("E02", "greedy-below-alone", ("E02",),
          "…yet less than the single-session grant f·C/(f+1)",
          lambda r: last_half_mean(r, "greedy0.rate") < share(1)),
    Claim("E02", "bursty-served", ("E02",),
          "an on/off session is served when on: over 5 Mb/s over the "
          "last half",
          lambda r: last_half_mean(r, "onoff0.rate") > 5.0),
    Claim("E02", "queue-peak", ("E02",),
          "transient queues stay under 1000 cells",
          lambda r: r.metric("queue.max") < 1000),
    Claim("E02", "queue-mean", ("E02",),
          "…and drain on average: mean under 50 cells",
          lambda r: r.metric("queue.mean") < 50),
    # -- E03, Fig. 5-6: RTT independence ---------------------------------
    Claim("E03", "oracle", ("E03",),
          "RTTs 1:50:200 each get their max-min share (15%)",
          lambda r: max(oracle_gaps(r).values()) < 0.15),
    Claim("E03", "equal", ("E03",),
          "the steady rates are equal despite the RTTs: each within 10% "
          "of every other",
          lambda r: max_min_ratio(rates(r).values()) <= 1.1),
    Claim("E03", "fair", ("E03",), "Jain index above 0.99",
          lambda r: r.metric("jain") > 0.99),
    # -- E04, Fig. 7-8: parking lot --------------------------------------
    Claim("E04", "oracle", ("E04",),
          "the rates match the phantom-adjusted max-min allocation: RMS "
          "gap under 5%",
          lambda r: rms(oracle_gaps(r).values()) < 0.05),
    Claim("E04", "no-beat-down", ("E04",),
          "the long session is not beaten down: within 10% of cross0",
          lambda r: close(r.metric("rates.long"), r.metric("rates.cross0"),
                          0.1)),
    # -- E05-E06: binary Phantom -----------------------------------------
    Claim("E05", "fair", ("E05",), "selective CI marking is fair: Jain "
          "index above 0.95", lambda r: r.metric("jain") > 0.95),
    Claim("E05", "total", ("E05",),
          "the total stays within 30% of twice the two-session share",
          lambda r: close(data_total(r), 2 * share(2) * DATA, 0.3)),
    Claim("E05", "queue", ("E05",), "the queue stays under 1500 cells",
          lambda r: r.metric("queue.max") < 1500),
    Claim("E06", "ni-damps", ("E06", "E05"),
          "the NI band never oscillates more: s0's steady ACR swing "
          "with NI is at most the swing without",
          lambda ni, plain: ripple(ni, "s0.acr")
          <= ripple(plain, "s0.acr")),
    Claim("E06", "goodput", ("E06", "E05"),
          "with and without NI the sessions deliver over 90 Mb/s",
          lambda ni, plain: data_total(ni) > 90 and data_total(plain) > 90),
    # -- E07: the mean-deviation filter ----------------------------------
    Claim("E07", "macr-ripple", ("E07-dev", "E07-nodev"),
          "the deviation term never blows up the network's MACR ripple: "
          "at most 1.5 × the ripple without it",
          lambda dev, nodev: ripple(dev, MACR) <= 1.5 * ripple(nodev, MACR)),
    # -- E08, Fig. 12-13: join and leave ---------------------------------
    Claim("E08", "adapts", ("E08",),
          "the base session adapts to the join (10% of f·C/(2f+1)) "
          "within 50 ms",
          lambda r: settle(r, "base.acr", 0.1, 0.25, share(2), 0.1)
          < 0.05),
    Claim("E08", "reclaims", ("E08",),
          "it reclaims the single-session share within 80 ms of the "
          "departure",
          lambda r: settle(r, "base.acr", 0.25, duration(r), share(1), 0.1)
          < 0.08),
    Claim("E08", "shared", ("E08",),
          "while both run, base sits within 25% of f·C/(2f+1)",
          lambda r: close(r.probe("base.acr").value_at(0.24), share(2),
                          0.25)),
    Claim("E08", "alone", ("E08",),
          "after the departure base holds f·C/(f+1) (15%)",
          lambda r: close(r.probe("base.acr").value_at(0.39), share(1),
                          0.15)),
    Claim("E08", "queue", ("E08",), "the queue stays under 500 cells",
          lambda r: r.metric("queue.max") < 500),
    # -- E09, Fig. 14-left, 17-left: Reno over drop-tail -----------------
    Claim("E09", "rtt-biased", ("E09-rtt",),
          "drop-tail is RTT-biased: max/min goodput above 2.5",
          lambda r: max_min_ratio(goodputs(r).values()) > 2.5),
    Claim("E09", "unfair", ("E09-rtt",), "Jain index below 0.9",
          lambda r: r.metric("jain") < 0.9),
    Claim("E09", "short-rtt-wins", ("E09-rtt",),
          "the short-RTT flow takes the larger share (Fig. 14-left)",
          lambda r: r.metric("goodput.rtt0") > r.metric("goodput.rtt1"),
          xfail="ROADMAP item 5: at 30 s the short-RTT flow gets 1.29 Mb/s "
                "and the long-RTT flow 7.97"),
    Claim("E09", "busy", ("E09-rtt",),
          "the link stays busy: total goodput above 7 Mb/s",
          lambda r: r.metric("total_goodput") > 7.0),
    Claim("E09", "beat-down", ("E09-parking",),
          "the long flow gets less than every cross flow (Fig. 17-left)",
          lambda r: long_share(r) < 1.0),
    # -- E10, Fig. 14-right, 17-right: Selective Discard -----------------
    Claim("E10", "rtt-fair", ("E10-rtt",),
          "near-equal split despite 1:4 RTTs: max/min under 1.6",
          lambda r: max_min_ratio(goodputs(r).values()) < 1.6),
    Claim("E10", "jain", ("E10-rtt",), "Jain index above 0.95",
          lambda r: r.metric("jain") > 0.95),
    Claim("E10", "headroom", ("E10-rtt",),
          "the phantom's share stays free: total under 10 Mb/s",
          lambda r: r.metric("total_goodput") < 10.0),
    Claim("E10", "busy", ("E10-rtt",), "…and the link stays used: total "
          "above 5 Mb/s", lambda r: r.metric("total_goodput") > 5.0),
    Claim("E10", "long-flow", ("E10-parking",),
          "the long flow is no longer the runt: above half the slowest "
          "cross flow (Fig. 17-right)",
          lambda r: long_share(r) > 0.5,
          xfail="ROADMAP item 5: at 30 s the long flow gets 2.62 Mb/s "
                "against half the slowest cross flow, 2.75"),
    Claim("E10", "protects-long-flow", ("E10-parking", "E09-parking"),
          "Selective Discard gives the long flow more than drop-tail",
          lambda sd, dt: sd.metric("goodput.long")
          > dt.metric("goodput.long")),
    Claim("E10", "parking-fairer", ("E10-parking", "E09-parking"),
          "…and the parking lot a higher Jain index",
          lambda sd, dt: sd.metric("jain") > dt.metric("jain")),
    Claim("E10", "throttle", ("E10-rtt", "E10-dropall"),
          "the 40 ms drop throttle is no less fair than dropping every "
          "non-conformant packet (Jain within 0.05)",
          lambda gap, dropall: gap.metric("jain")
          >= dropall.metric("jain") - 0.05),
    # -- E11, Fig. 15-16: many equal flows -------------------------------
    Claim("E11", "even", ("E11-sd",),
          "Selective Discard splits equal flows evenly: Jain above 0.9",
          lambda r: r.metric("jain") > 0.9),
    Claim("E11", "no-standing-queue", ("E11-sd", "E11-droptail"),
          "…without drop-tail's standing queue: a lower mean queue",
          lambda sd, dt: sd.metric("queue.mean") < dt.metric("queue.mean")),
    Claim("E11", "busy", ("E11-sd",), "total goodput above 6 Mb/s",
          lambda r: r.metric("total_goodput") > 6.0),
    # -- E12-E13, §4.2: the gentler mechanisms ---------------------------
    Claim("E12", "quench-busy", ("E12-quench",),
          "Selective Source Quench keeps the total above 4 Mb/s",
          lambda r: r.metric("total_goodput") > 4.0),
    Claim("E12", "quench-fair", ("E12-quench",), "…with Jain above 0.8",
          lambda r: r.metric("jain") > 0.8),
    Claim("E12", "efci-busy", ("E12-efci",),
          "the EFCI bit keeps the total above 4 Mb/s",
          lambda r: r.metric("total_goodput") > 4.0),
    Claim("E12", "efci-fair", ("E12-efci",), "…with Jain above 0.8",
          lambda r: r.metric("jain") > 0.8),
    Claim("E13", "busy", ("E13",),
          "Selective RED keeps the total above 4 Mb/s",
          lambda r: r.metric("total_goodput") > 4.0),
    # -- E14-E17, Section 5: the baselines -------------------------------
    Claim("E14", "fair", ("E14",), "EPRCA is fair at equal RTTs: Jain "
          "above 0.95", lambda r: r.metric("jain") > 0.95),
    Claim("E14", "utilized", ("E14",), "…at utilisation above 0.85",
          lambda r: r.metric("utilization") > 0.85),
    Claim("E14", "parks-queue", ("E14",),
          "EPRCA parks its queue near the threshold: steady mean above "
          "50 cells",
          lambda r: r.metric("queue.steady_mean") > 50),
    Claim("E14", "queue-vs-phantom", ("E14", "E01"),
          "…ten times Phantom's near-empty steady queue",
          lambda eprca, phantom: eprca.metric("queue.steady_mean")
          > 10 * max(phantom.metric("queue.steady_mean"), 1.0)),
    Claim("E15", "fair", ("E15-staggered",), "APRC is fair at equal RTTs: "
          "Jain above 0.95", lambda r: r.metric("jain") > 0.95),
    Claim("E15", "utilized", ("E15-staggered",),
          "…at utilisation above 0.85",
          lambda r: r.metric("utilization") > 0.85),
    Claim("E15", "exceeds-vqt", ("E15-onoff",),
          "on/off bursts push the queue past the very-congested "
          "threshold of 300 cells",
          lambda r: r.metric("queue.max") > 300),
    Claim("E16", "slower", ("E16-capc", "E01"),
          "CAPC converges more slowly: its first session reaches 60 Mb/s "
          "later than Phantom's",
          lambda capc, phantom: ramp(capc, 60.0) > ramp(phantom, 60.0)),
    Claim("E16", "smaller-queue", ("E16-capc", "E01"),
          "…with a smaller transient queue: a lower peak over the first "
          "200 ms",
          lambda capc, phantom: queue(capc, 0.0, 0.2)["max"]
          < queue(phantom, 0.0, 0.2)["max"]),
    Claim("E17", "phantom", ("E04",),
          "Phantom does not beat the long path down: long over slowest "
          "cross above 0.85",
          lambda r: long_share(r) > 0.85),
    Claim("E17", "vs-eprca", ("E04", "E17-eprca"),
          "Phantom protects the long path at least as well as EPRCA "
          "(within 0.05)",
          lambda phantom, eprca: long_share(phantom)
          >= long_share(eprca) - 0.05),
    Claim("E17", "vs-capc", ("E04", "E17-capc"),
          "…and as well as CAPC (within 0.05)",
          lambda phantom, capc: long_share(phantom)
          >= long_share(capc) - 0.05),
    # -- E18: the max-min table ------------------------------------------
    Claim("E18", "table", ("E18", "E03", "E04"),
          "staggered-3, RTT-spread and parking lot each within 8% RMS of "
          "the max-min oracle",
          lambda *runs: all(rms(oracle_gaps(r).values()) < 0.08
                            for r in runs)),
    # -- E19-E20: ablations ----------------------------------------------
    Claim("E19", "closed-form", E19_ROWS,
          "for stable factors utilisation tracks n·f/(n·f+1) within 10%",
          lambda *runs: all(close(
              r.metric("utilization"),
              phantom_equilibrium_utilization(2, f) * DATA, 0.1)
              for f, r in zip(STABLE_FACTORS, runs))),
    Claim("E19", "monotone", E19_ROWS,
          "utilisation rises with f across the stable factors",
          lambda *runs: [r.metric("utilization") for r in runs]
          == sorted(r.metric("utilization") for r in runs)),
    Claim("E19", "limit-cycle", ("E19-f20",),
          "past the stability bound (f = 20) utilisation falls below the "
          "closed form",
          lambda r: r.metric("utilization")
          < phantom_equilibrium_utilization(2, 20.0) * DATA),
    Claim("E20", "settles", E20_ROWS,
          "every Δt and α variant settles within 10% of f·C/(2f+1) less "
          "than 100 ms after the join",
          lambda *runs: all(settle(r, "s0.acr", STAGGER, duration(r),
                                   share(2), 0.1) < 0.1 for r in runs)),
    Claim("E20", "queue", E20_ROWS, "…with queues under 2000 cells",
          lambda *runs: all(r.metric("queue.max") < 2000 for r in runs)),
    Claim("E20", "fair", E20_ROWS, "…and Jain above 0.95",
          lambda *runs: all(r.metric("jain") > 0.95 for r in runs)),
    # -- E21-E22: Vegas and mixed stacks ---------------------------------
    Claim("E21", "vegas-unfair", ("E21-droptail",),
          "Vegas flows with non-overlapping thresholds are unfair under "
          "drop-tail: hungry/modest above 2.5",
          lambda r: r.metric("goodput.hungry") / r.metric("goodput.modest")
          > 2.5),
    Claim("E21", "balanced", ("E21-sd",),
          "Selective Discard balances them: ratio under 1.3",
          lambda r: r.metric("goodput.hungry") / r.metric("goodput.modest")
          < 1.3),
    Claim("E21", "fair", ("E21-sd",), "…Jain above 0.98",
          lambda r: r.metric("jain") > 0.98),
    Claim("E22", "equalises", ("E22-sd", "E22-droptail"),
          "Reno, Tahoe and Vegas are held at least as fair as drop-tail "
          "leaves them (Jain within 0.02)",
          lambda sd, dt: sd.metric("jain") >= dt.metric("jain") - 0.02),
    Claim("E22", "fair", ("E22-sd",), "…Jain above 0.9",
          lambda r: r.metric("jain") > 0.9),
    Claim("E22", "busy", ("E22-sd",), "…total above 5 Mb/s",
          lambda r: r.metric("total_goodput") > 5.0),
    # -- E23-E26: extensions ---------------------------------------------
    Claim("E23", "before", ("E23",),
          "before the CBR stream, s0 holds f·C/(2f+1) (15%)",
          lambda r: close(r.probe("s0.acr").value_at(0.145), share(2),
                          0.15)),
    Claim("E23", "during", ("E23",),
          "while 60 Mb/s of CBR runs, f·(C−60)/(2f+1) (15%)",
          lambda r: close(r.probe("s0.acr").value_at(0.295),
                          share(2, C - 60.0), 0.15)),
    Claim("E23", "after", ("E23",),
          "after it stops, f·C/(2f+1) again (15%)",
          lambda r: close(r.probe("s0.acr").value_at(duration(r) - 0.005),
                          share(2), 0.15)),
    Claim("E23", "lossless", ("E23",),
          "the guaranteed stream is lossless: the bottleneck drops "
          "nothing",
          lambda r: r.payload["counters"]["bottleneck.drops"] == 0),
    Claim("E24", "fair", E24_ROWS,
          "Phantom, EPRCA and ERICA are fair at 2 and 8 sessions: Jain "
          "above 0.95",
          lambda *runs: all(r.metric("jain") > 0.95 for r in runs)),
    Claim("E24", "erica-utilization", ("E24-erica-n8", "E24-phantom-n8"),
          "ERICA's per-VC state buys at least Phantom's utilisation at "
          "8 sessions (within 0.05)",
          lambda erica, phantom: erica.metric("utilization")
          > phantom.metric("utilization") - 0.05),
    Claim("E25", "weighted-oracle", ("E25",),
          "weights 1:2:4 each end within 10% of the weighted max-min "
          "share",
          lambda r: all(close(acr_final(r, vc), rate, 0.1)
                        for vc, rate in oracle(r).items())),
    Claim("E25", "proportional", ("E25",),
          "w4 ends at 4 × w1 (5%)",
          lambda r: close(acr_final(r, "w4"), 4 * acr_final(r, "w1"),
                          0.05)),
    Claim("E26", "symmetric-droptail", ("E26-droptail",),
          "under drop-tail neither direction starves: each above 0.7 × "
          "the other",
          lambda r: min(directions(r)) > 0.7 * max(directions(r))),
    Claim("E26", "symmetric-sd", ("E26-sd",),
          "…nor under Selective Discard",
          lambda r: min(directions(r)) > 0.7 * max(directions(r))),
    Claim("E26", "fair", ("E26-sd",), "Selective Discard: Jain above 0.95",
          lambda r: r.metric("jain") > 0.95),
    Claim("E26", "headroom", ("E26-sd",),
          "…east-bound total under the 10 Mb/s line rate",
          lambda r: directions(r)[0] < 10.0),
    Claim("E26", "no-standing-queue", ("E26-sd", "E26-droptail"),
          "…and a lower mean queue than drop-tail",
          lambda sd, dt: sd.metric("queue.mean") < dt.metric("queue.mean")),
    # -- the Section-5 digest: six algorithms, one scenario --------------
    Claim("S5", "fair", DIGEST_ROWS,
          "every algorithm is fair at equal RTTs: Jain above 0.9",
          lambda *runs: all(r.metric("jain") > 0.9 for r in runs)),
    Claim("S5", "utilized", DIGEST_ROWS,
          "every algorithm uses the link: utilisation above 0.6",
          lambda *runs: all(r.metric("utilization") > 0.6 for r in runs)),
    Claim("S5", "phantom-settles", ("E01",),
          "Phantom settles within 15% of its share (held 20 ms) less "
          "than 50 ms after the join",
          lambda r: settle(r, "s0.acr", STAGGER, duration(r),
                           oracle(r)["s0"], 0.15, hold=0.02) < 0.05),
    Claim("S5", "phantom-queue", ("E01",),
          "Phantom's steady queue is near empty: under 20 cells",
          lambda r: r.metric("queue.steady_mean") < 20),
    Claim("S5", "aprc-queue", ("E15-staggered",),
          "APRC parks its queue: steady mean above 50 cells",
          lambda r: r.metric("queue.steady_mean") > 50),
)


def _param(claim: Claim):
    marks = ([pytest.mark.xfail(strict=True, reason=claim.xfail)]
             if claim.xfail else [])
    return pytest.param(claim, id=f"{claim.experiment}-{claim.name}",
                        marks=marks)


@pytest.mark.parametrize("claim", [_param(claim) for claim in CLAIMS])
def test_claim(results, claim):
    runs = [results[task] for task in claim.tasks]
    for res in runs:
        assert res.ok, f"{res.spec.task_id}: {res.error}"
    metrics = {res.spec.task_id: res.payload["metrics"] for res in runs}
    assert claim.holds(*runs), f"{claim.statement}; metrics: {metrics}"


def test_every_suite_row_passes_health(results):
    """The E01-E26 health suite: no conservation, queue-bound or oracle
    check is violated on any suite row."""
    runs = [results[task_id] for task_id, _, _ in SUITE]
    assert all(res.ok for res in runs)
    violated = [res.spec.task_id for res in runs
                if res.payload["health"]["verdict"] == "violated"]
    assert not violated


def test_claims_are_well_formed():
    ids = [f"{c.experiment}-{c.name}" for c in CLAIMS]
    assert len(ids) == len(set(ids))
    known = {task_id for task_id, _, _ in SUITE} | {s.task_id
                                                    for s in EXTRA}
    assert {t for c in CLAIMS for t in c.tasks} <= known
    assert set(SERIES) <= known
    # every experiment of the suite is checked by at least one claim
    experiments = {task_id.split("-", 1)[0] for task_id, _, _ in SUITE}
    assert experiments <= {c.experiment for c in CLAIMS}
