"""Property harness: run generated specs, judge every outcome.

A batch goes cache-first through :func:`repro.exec.run_tasks` (same
pool, same longest-first submission, same on-disk
:class:`~repro.exec.cache.ResultCache`), then every
:class:`~repro.exec.pool.ExecResult` is folded into one of four
classifications:

``pass``
    the run completed and every applicable property held;
``violated``
    a health check (conservation, queue bound) or an oracle property
    (fair-share closeness) failed;
``crash``
    the worker raised — builder rejection, simulation error;
``timeout``
    the task overran its wall-clock budget.

The oracle properties only apply to configs
:func:`oracle_eligibility` accepts.  Its gates are
:mod:`repro.obs.health`'s own gate table (paper-filter phantom, factor
and settled-horizon limits, RM loss, the grant floor) plus the few that
only a config can fail: access-limited trunks, long feedback delays,
on/off demand, departures and cross-traffic.  Eligible configs are
judged against :func:`repro.fuzz.oracle.oracle_for_config`, the same
solve path health applies to a built network.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.core.params import PhantomParams
from repro.exec.pool import ExecResult, run_tasks
from repro.exec.spec import TaskSpec
from repro.fuzz.oracle import oracle_for_config
from repro.obs.health import (RM_LOSS_REASON, equilibrium_reason,
                              floor_reason, law_reason)
from repro.obs.monitor import DEFAULT_EPS, VIOLATED, fairness_gap_check
from repro.scenarios.config import topology

#: Classification labels.
CLASS_PASS = "pass"
CLASS_VIOLATED = "violated"
CLASS_CRASH = "crash"
CLASS_TIMEOUT = "timeout"

#: Feedback delays above this keep the loop visibly hunting on the
#: committed horizons, so the ε-band argument is not applied.
_MAX_ACCESS_DELAY = 1e-3
#: Empirical settledness: the mean ACR over the last quarter of the
#: horizon must agree with the quarter before it to within this
#: fraction of ``DEFAULT_EPS`` — a run still ramping (slow weighted
#: convergence, late joins, aggressive factors) is excused from the
#: ε-band rather than mis-reported as unfair.  A run whose rates have
#: stopped moving but settled at the *wrong* value stays a violation.
#: Truly converged runs drift well under 0.5% per quarter-horizon;
#: weighted sessions at aggressive factors creep at ~2% per quarter
#: for many horizons, so the cut sits between the two.
_DRIFT_FRACTION = 0.2


def oracle_eligibility(config: Mapping[str, Any]) -> str | None:
    """Why the fair-share properties do not apply, or None if they do."""
    knobs = dict(config.get("algorithm_params") or {})
    reason = law_reason(config.get("algorithm", "phantom"), knobs)
    if reason is not None:
        return reason
    link_rate = float(config.get("link_rate", 150.0))
    capacities, routes = topology(config)
    for port, capacity in capacities.items():
        if capacity > link_rate:
            return (f"trunk {port} is faster than the {link_rate:g} "
                    f"Mb/s access links, so sessions are access-limited "
                    f"and ACR exceeds the trunk max-min share by design")
    if config.get("vbr") or config.get("cbr"):
        return "background cross-traffic perturbs the steady demand"
    if float(config.get("rm_loss", 0.0)) > 0.0:
        return RM_LOSS_REASON
    latest_start = 0.0
    for session in config.get("sessions", ()):
        if session.get("onoff"):
            return (f"session {session['vc']!r} has bursty on/off "
                    f"demand")
        if session.get("stop") is not None:
            return f"session {session['vc']!r} leaves mid-run"
        if float(session.get("access_delay", 0.0)) > _MAX_ACCESS_DELAY:
            return (f"session {session['vc']!r} feedback delay exceeds "
                    f"{_MAX_ACCESS_DELAY:g}s")
        latest_start = max(latest_start,
                           float(session.get("start", 0.0)))
    phantom = PhantomParams(**knobs)   # law_reason admits only its fields
    reason = equilibrium_reason(phantom.utilization_factor, phantom.interval,
                                float(config.get("duration", 0.25)),
                                latest_start)
    if reason is not None:
        return reason
    floors = {link: phantom.grant_floor_fraction * capacity
              for link, capacity in capacities.items()}
    return floor_reason(oracle_for_config(config), routes, floors)


def _window_mean(times: list[float], values: list[float],
                 lo: float, hi: float) -> float:
    """Time-weighted mean of a change-recorded step series over
    ``[lo, hi]`` (the value holds between records)."""
    if not times or hi <= lo:
        return 0.0
    total = 0.0
    for i, value in enumerate(values):
        seg_lo = max(times[i], lo)
        seg_hi = min(times[i + 1] if i + 1 < len(times) else hi, hi)
        if seg_hi > seg_lo:
            total += value * (seg_hi - seg_lo)
    return total / (hi - lo)


def _oracle_checks(config: Mapping[str, Any],
                   series: Mapping[str, Any],
                   ) -> tuple[list[dict], dict[str, float], str | None]:
    """``(checks, oracle, skip_reason)`` for an eligible config.

    The measured quantity is the **settled allowed cell rate**: the
    time-weighted mean ACR over the last quarter of the horizon.  ACR
    is what the control loop actually assigns (goodput trails it by
    the RM-cell overhead and queueing), so the ε-band compares like
    with like.  Settledness is judged empirically per session — the
    last-quarter mean against the quarter before it — and an unsettled
    run skips the band instead of failing it.
    """
    oracle = oracle_for_config(config)
    duration = float(config.get("duration", 0.25))
    measured: dict[str, float] = {}
    drift_tol = _DRIFT_FRACTION * DEFAULT_EPS
    for vc in sorted(oracle):
        acr = series.get(f"{vc}.acr")
        if acr is None:
            return [], oracle, (f"no ACR series for {vc!r} (spec "
                                f"requested no probes)")
        late = _window_mean(acr["times"], acr["values"],
                            0.75 * duration, duration)
        mid = _window_mean(acr["times"], acr["values"],
                           0.5 * duration, 0.75 * duration)
        drift = abs(late - mid) / max(abs(late), 1e-12)
        if drift > drift_tol:
            return [], oracle, (f"{vc!r} still ramping at the horizon "
                                f"(last-quarter ACR drifted {drift:.1%}"
                                f" > {drift_tol:.1%})")
        measured[vc] = late
    gap = fairness_gap_check(measured, oracle)
    gap["name"] = "oracle_gap"
    return [gap], oracle, None


def classify_result(result: ExecResult) -> dict[str, Any]:
    """One judgment dict for one executed (or cached) task."""
    spec = result.spec
    judgment: dict[str, Any] = {
        "task_id": spec.task_id,
        "cached": result.cached,
    }
    if result.status == "timeout":
        judgment["classification"] = CLASS_TIMEOUT
        judgment["detail"] = result.error
        return judgment
    if result.status != "ok":
        judgment["classification"] = CLASS_CRASH
        judgment["detail"] = result.error
        return judgment

    payload = result.payload
    checks = list(payload.get("health", {}).get("checks", ()))
    eligibility = None
    if spec.config is not None:
        eligibility = oracle_eligibility(spec.config)
        if eligibility is None:
            extra, oracle, skipped = _oracle_checks(
                spec.config, payload.get("series") or {})
            if skipped is None:
                checks.extend(extra)
                judgment["oracle"] = oracle
            else:
                judgment["oracle_skipped"] = skipped
        else:
            judgment["oracle_skipped"] = eligibility
    failed = sorted(c["name"] for c in checks
                    if c["verdict"] == VIOLATED)
    judgment["classification"] = (CLASS_VIOLATED if failed
                                  else CLASS_PASS)
    judgment["checks"] = failed
    return judgment


def judge_batch(results: Iterable[ExecResult]) -> dict[str, Any]:
    """Judgments plus a batch summary, in submission order."""
    judgments = [classify_result(result) for result in results]
    counts = {CLASS_PASS: 0, CLASS_VIOLATED: 0, CLASS_CRASH: 0,
              CLASS_TIMEOUT: 0}
    failing: dict[str, list[str]] = {}
    for judgment in judgments:
        counts[judgment["classification"]] += 1
        if judgment["classification"] != CLASS_PASS:
            failing[judgment["task_id"]] = judgment.get("checks", [])
    return {
        "judgments": judgments,
        "counts": counts,
        "failing": failing,
        "oracle_checked": sum("oracle" in j for j in judgments),
    }


def run_campaign(specs: list[TaskSpec], *, jobs: int | None = None,
                 cache=None, timeout: float | None = None,
                 retries: int = 1,
                 ) -> tuple[list[ExecResult], dict[str, Any]]:
    """Execute a batch cache-first and judge every outcome."""
    results = run_tasks(specs, jobs=jobs, cache=cache, timeout=timeout,
                        retries=retries)
    return results, judge_batch(results)
