"""End-to-end gateway tests over real sockets.

Includes the parity acceptance test: results fetched through the HTTP
API must be bit-identical (golden probe digests) to a local
``run_tasks(jobs=1)`` execution of the same spec.
"""

import pytest

from repro.exec.fingerprint import task_fingerprint
from repro.exec.pool import run_tasks
from repro.exec.registry import all_scenarios
from repro.exec.spec import TaskSpec
from repro.serve.client import RateLimited, ServeError

SMALL = {"scenario": "atm.staggered", "params": {"duration": 0.02},
         "probes": ("s0.acr",)}


def test_healthz_reports_components(serve_app):
    server = serve_app()
    health = server.client().healthz()
    assert health["status"] == "ok"
    assert health["slots"] == 2
    assert health["admission"]["enabled"] is True
    assert health["admission"]["capacity_rps"] == 100.0
    assert health["queue_depth"] == 0
    assert health["cache"] == {"hits": 0, "misses": 0}


def test_scenarios_endpoint_mirrors_the_registry(serve_app):
    server = serve_app()
    served = {s["name"]: s for s in server.client().scenarios()}
    local = all_scenarios()
    assert set(served) == set(local)
    assert served["atm.staggered"]["kind"] == "atm"


def test_submit_poll_and_wait(serve_app):
    server = serve_app()
    client = server.client()
    accepted = client.submit(**SMALL)
    assert accepted["state"] in ("queued", "running")
    assert accepted["id"].startswith("j")
    final = client.wait(accepted["id"], deadline_s=60)
    assert final["state"] == "ok"
    assert final["cached"] is False
    assert final["fingerprint"]
    assert 0.0 < final["metrics"]["jain"] <= 1.0
    assert "s0.acr" in final["series"]
    # polling after completion still serves the stored result
    again = client.job(accepted["id"])
    assert again["probe_digests"] == final["probe_digests"]


def test_http_results_match_local_jobs1_execution(serve_app):
    """Acceptance: the gateway is a transport, not a perturbation."""
    server = serve_app()
    spec = TaskSpec(task_id="parity", scenario="atm.staggered",
                    params={"duration": 0.05}, seed=3,
                    probes=("s0.acr",))
    local = run_tasks([spec], jobs=1)[0]
    assert local.status == "ok"

    remote = server.client().submit_and_wait(
        spec.scenario, params=dict(spec.params), seed=spec.seed,
        probes=spec.probes, task_id=spec.task_id, deadline_s=60)
    assert remote["state"] == "ok"
    assert remote["probe_digests"] == local.payload["probe_digests"]
    assert remote["metrics"] == local.payload["metrics"]
    assert remote["series"] == local.payload["series"]
    # run_tasks(jobs=1, cache=None) leaves fingerprint unset; recompute
    assert remote["fingerprint"] == task_fingerprint(spec)


def test_gateway_jobs_never_create_a_process_pool(serve_app, monkeypatch):
    """Bridge threads must not fork: a child forked from a process with
    running threads inherits their held locks.  ``execute_spec`` pins
    ``jobs=1``, so a gateway job runs in-process on its bridge thread."""
    def no_pool(jobs):
        raise AssertionError("gateway job reached process-pool creation")

    monkeypatch.setattr("repro.exec.pool._make_pool", no_pool)
    server = serve_app()
    final = server.client().submit_and_wait(**SMALL, deadline_s=60)
    assert final["state"] == "ok"


def test_resubmission_is_served_from_cache_bit_identically(serve_app):
    server = serve_app()
    client = server.client()
    first = client.submit_and_wait(**SMALL, deadline_s=60)
    second = client.submit_and_wait(**SMALL, deadline_s=60)
    assert first["cached"] is False
    assert second["cached"] is True
    assert second["fingerprint"] == first["fingerprint"]
    assert second["probe_digests"] == first["probe_digests"]
    assert server.client().healthz()["cache"]["hits"] >= 1


def test_unknown_scenario_is_400_with_the_known_names(serve_app):
    server = serve_app()
    with pytest.raises(ServeError) as err:
        server.client().submit("no.such.scenario")
    assert err.value.status == 400
    assert "atm.staggered" in err.value.message


def test_unknown_job_is_404(serve_app):
    server = serve_app()
    with pytest.raises(ServeError) as err:
        server.client().job("j999999")
    assert err.value.status == 404


def test_unknown_route_is_404_and_bad_method_405(serve_app):
    server = serve_app()
    client = server.client()
    response = client._request("GET", "/nope")
    assert response.status == 404
    response.read()
    response = client._request("DELETE", "/jobs")
    assert response.status == 405
    response.read()


def test_every_response_carries_the_explicit_rate(serve_app):
    server = serve_app()
    client = server.client()
    assert client.allowed_rate_rps is None
    client.healthz()
    assert client.allowed_rate_rps is not None
    assert 0.0 < client.allowed_rate_rps <= 100.0


def test_over_grant_submissions_get_429_with_retry_after(serve_app):
    server = serve_app(capacity_rps=2.0, burst=1.0, interval_s=0.25)
    client = server.client(client_id="greedy")
    accepted, limited = 0, None
    for _ in range(10):
        try:
            client.submit(**SMALL)
            accepted += 1
        except RateLimited as exc:
            limited = exc
            break
    assert accepted >= 1
    assert limited is not None, "burst of 10 was never rate-limited"
    assert limited.retry_after_s > 0
    assert limited.allowed_rate_rps <= 2.0
    assert limited.status == 429


def test_events_stream_follows_the_job_to_a_terminal_state(serve_app):
    server = serve_app()
    client = server.client()
    accepted = client.submit("tcp.many", params={"duration": 2.0})
    states = [s["state"] for s in client.events(accepted["id"])]
    assert states[-1] == "ok"
    assert states == sorted(set(states), key=states.index)  # no repeats
    versions = [s for s in states]
    assert len(versions) >= 1


def test_metrics_scrape_has_request_latency_queue_and_admission(
        serve_app):
    server = serve_app()
    client = server.client()
    client.submit_and_wait(**SMALL, deadline_s=60)
    text = client.metrics_text()
    assert "# TYPE repro_serve_requests_total counter" in text
    assert 'repro_serve_requests_total{method="POST"' in text
    assert "# TYPE repro_serve_request_seconds histogram" in text
    assert "# TYPE repro_serve_job_seconds histogram" in text
    assert "repro_serve_queue_depth" in text
    assert "repro_serve_macr_rps" in text
    assert "repro_serve_grant_rps" in text
    assert "repro_serve_admitted_total" in text


def test_job_failure_is_reported_not_fatal(serve_app):
    server = serve_app()
    client = server.client()
    final = client.submit_and_wait(
        "atm.staggered", params={"duration": -1.0}, deadline_s=60)
    assert final["state"] == "error"
    assert final["error"]
    # the server is still healthy afterwards
    assert server.client().healthz()["status"] == "ok"


def test_ablation_mode_never_rejects(serve_app):
    server = serve_app(admission=False, capacity_rps=2.0, burst=1.0)
    client = server.client(client_id="greedy")
    for _ in range(10):
        client.submit(**SMALL)       # would 429 under admission
    health = server.client().healthz()
    assert health["admission"]["enabled"] is False
    assert health["admission"]["rejected_total"] == 0
