"""Tests for the SimAS advisor service (repro.serve)."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cache import cache_to
from repro.core.registry import technique_names
from repro.obs import journal_to, load_journal
from repro.obs.metrics import clear_registry, set_registry
from repro.serve import (
    AdviseRequest,
    AdviseValidationError,
    Advisor,
    SweepBatcher,
    make_server,
    serve_forever_in_thread,
)

QUICK = {"n": 256, "p": 4, "runs": 2, "seed": 1,
         "techniques": ["gss", "fac2", "tss"]}


@pytest.fixture(autouse=True)
def _registry_off():
    """Leave the process-global metrics registry as each test found it."""
    yield
    clear_registry()


# -- request validation ---------------------------------------------------

def test_defaults_cover_all_techniques():
    request = AdviseRequest.from_json({"n": 64, "p": 2})
    assert list(request.techniques) == technique_names()
    assert request.runs == 5
    assert request.simulator == "direct-batch"
    assert request.scenario is None


@pytest.mark.parametrize(
    "payload, field, fragment",
    [
        ({"p": 4}, "n", "'n' is required"),
        ({"n": 0, "p": 4}, "n", "must be >= 1"),
        ({"n": 64, "p": 4, "runs": 99999}, "runs", "must be <="),
        ({"n": 64, "p": 4, "dist": "weibull"}, "dist",
         "unknown workload distribution 'weibull'"),
        ({"n": 64, "p": 4, "techniques": ["nope"]}, "techniques",
         "unknown technique 'nope'"),
        ({"n": 64, "p": 4, "techniques": []}, "techniques", "non-empty"),
        ({"n": 64, "p": 4, "scenario": "nope"}, "scenario",
         "unknown scenario preset 'nope'"),
        ({"n": 64, "p": 4, "simulator": "simgrid4"}, "simulator",
         "unknown simulation backend 'simgrid4'"),
        ({"n": 64, "p": 4, "platform": {"cores": 3}}, "platform",
         "unknown platform key 'cores'"),
        ({"n": 64, "p": 4, "platform": {"latency": -1}}, "platform",
         "must be > 0"),
        ({"n": 64, "p": 4, "frobnicate": True}, "frobnicate",
         "unknown request key"),
    ],
)
def test_validation_names_the_offender(payload, field, fragment):
    with pytest.raises(AdviseValidationError) as err:
        AdviseRequest.from_json(payload)
    assert err.value.field == field
    assert fragment in err.value.message
    body = err.value.to_json()
    assert body["error"] == "validation"
    assert body["field"] == field


def test_validation_lists_registered_alternatives():
    """4xx messages mirror the CLI style: name what *is* registered."""
    with pytest.raises(AdviseValidationError) as err:
        AdviseRequest.from_json({"n": 64, "p": 4, "scenario": "bogus"})
    assert "slow-quarter" in err.value.message
    with pytest.raises(AdviseValidationError) as err:
        AdviseRequest.from_json({"n": 64, "p": 4, "techniques": ["bogus"]})
    assert "fac2" in err.value.message


def test_scenario_file_paths_rejected_over_the_wire(tmp_path):
    """Only preset names cross the wire — never server-side file paths."""
    spec = tmp_path / "scenario.json"
    spec.write_text("{}")
    with pytest.raises(AdviseValidationError) as err:
        AdviseRequest.from_json({"n": 64, "p": 4, "scenario": str(spec)})
    assert err.value.field == "scenario"


def test_platform_on_direct_family_is_a_4xx_not_a_500():
    advisor = Advisor()
    with pytest.raises(AdviseValidationError) as err:
        advisor.parse({**QUICK, "simulator": "direct",
                       "platform": {"worker_speed": 2.0}})
    assert err.value.field == "simulator"


def test_techniques_are_deduped_and_case_folded():
    request = AdviseRequest.from_json(
        {"n": 64, "p": 2, "techniques": ["GSS", "gss", "fac2"]}
    )
    assert request.techniques == ("gss", "fac2")


# -- ranking --------------------------------------------------------------

def test_ranking_is_sorted_and_complete():
    advisor = Advisor()
    response = advisor.advise(advisor.parse(QUICK))
    assert [row.technique for row in response.ranking] != []
    means = [row.makespan_mean for row in response.ranking]
    assert means == sorted(means)
    assert response.best == response.ranking[0].technique
    for row in response.ranking:
        low, high = row.makespan_ci
        assert low <= row.makespan_mean <= high
        assert row.backend == "direct-batch"
        assert row.runs == QUICK["runs"]


def test_ranking_matches_run_replicated(tmp_path):
    """The advisor is a view over the existing runner, not a new engine."""
    from repro.experiments.runner import run_replicated

    advisor = Advisor()
    request = advisor.parse(QUICK)
    response = advisor.advise(request)
    task = request.tasks()[0]  # gss
    results = run_replicated(task, runs=QUICK["runs"],
                             campaign_seed=QUICK["seed"], processes=1)
    expected = sum(r.makespan for r in results) / len(results)
    row = next(r for r in response.ranking if r.technique == "gss")
    assert row.makespan_mean == pytest.approx(expected, rel=0, abs=0)


def test_perturbed_ranking_differs_from_clean():
    """The SimAS killer feature: a scenario re-ranks the techniques."""
    advisor = Advisor()
    base = {"n": 1024, "p": 8, "runs": 4, "seed": 3,
            "techniques": ["stat", "ss", "gss", "fac2", "css", "tss"]}
    clean = advisor.advise(advisor.parse(base))
    perturbed = advisor.advise(
        advisor.parse({**base, "scenario": "slow-quarter"})
    )
    assert clean.request.scenario is None
    assert perturbed.request.scenario.name == "slow-quarter"
    assert perturbed.to_json()["scenario"] == "slow-quarter"
    clean_order = [row.technique for row in clean.ranking]
    perturbed_order = [row.technique for row in perturbed.ranking]
    assert clean_order != perturbed_order
    # and the perturbed makespans are not the clean ones relabelled
    assert (clean.ranking[0].makespan_mean
            != perturbed.ranking[0].makespan_mean)


def test_repeat_query_is_served_from_cache(tmp_path):
    advisor = Advisor()
    with cache_to(tmp_path / "cache"):
        first = advisor.advise(advisor.parse(QUICK))
        assert first.cache_hits == 0
        assert first.cache_misses == len(QUICK["techniques"])
        second = advisor.advise(advisor.parse(QUICK))
        assert second.cache_hits == len(QUICK["techniques"])
        assert second.cache_misses == 0
        assert [r.to_json() for r in second.ranking] == [
            r.to_json() for r in first.ranking
        ]


def test_journal_gets_one_advise_record_per_query(tmp_path):
    journal = tmp_path / "journal.jsonl"
    advisor = Advisor()
    with journal_to(journal):
        advisor.advise(advisor.parse(QUICK))
        advisor.advise(advisor.parse(QUICK))
    records = [r for r in load_journal(journal) if r["kind"] == "advise"]
    assert len(records) == 2
    assert records[0]["best"] == records[1]["best"]
    assert records[0]["techniques"] == len(QUICK["techniques"])
    assert records[0]["n"] == QUICK["n"]


def test_serve_metrics_series(tmp_path):
    registry = set_registry()
    advisor = Advisor()
    with cache_to(tmp_path / "cache"):
        advisor.advise(advisor.parse(QUICK))
        advisor.advise(advisor.parse(QUICK))
        assert registry.counters["serve_requests_total"].value == 2
        assert registry.histograms["serve_request_seconds"].count == 2
        assert registry.gauges["serve_cache_hit_rate"].value == 0.5
    text = registry.render_prometheus()
    assert "repro_serve_requests_total 2" in text


# -- batching -------------------------------------------------------------

def test_batcher_dedupes_identical_sweeps():
    calls = []
    batcher = SweepBatcher()
    original = type(batcher)._dispatch

    def spy(self, batch):
        calls.append(sum(len(p.sweeps) for p in batch))
        return original(self, batch)

    batcher._dispatch = spy.__get__(batcher)
    advisor = Advisor()
    advisor._batcher = batcher
    request = advisor.parse(QUICK)

    barrier = threading.Barrier(3)
    responses = [None] * 3
    errors = []

    def query(i):
        try:
            barrier.wait()
            responses[i] = advisor.advise(request)
        except BaseException as exc:  # pragma: no cover - diagnostics
            errors.append(exc)

    threads = [threading.Thread(target=query, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    rankings = [[r.to_json() for r in resp.ranking] for resp in responses]
    assert rankings[0] == rankings[1] == rankings[2]
    # every query got an answer even though concurrent arrivals were
    # grouped (leader executes for followers)
    assert sum(calls) == 3 * len(QUICK["techniques"])


def test_batcher_propagates_errors_to_every_waiter():
    batcher = SweepBatcher()

    def boom(self, batch):
        for pending in batch:
            pending.error = RuntimeError("pool died")
            pending.done.set()

    batcher._dispatch = boom.__get__(batcher)
    with pytest.raises(RuntimeError, match="pool died"):
        batcher.execute([("sweep", 1, None)])


# -- the HTTP surface -----------------------------------------------------

@pytest.fixture
def server(tmp_path):
    set_registry()
    advisor = Advisor()
    httpd = make_server("127.0.0.1", 0, advisor)
    serve_forever_in_thread(httpd)
    with cache_to(tmp_path / "cache"):
        yield httpd
    httpd.shutdown()
    httpd.server_close()


def _request(server, path, payload=None):
    port = server.server_address[1]
    url = f"http://127.0.0.1:{port}{path}"
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read(), response.headers
    except urllib.error.HTTPError as error:
        return error.code, error.read(), error.headers


def test_http_advise_roundtrip(server):
    status, body, headers = _request(server, "/advise", QUICK)
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    answer = json.loads(body)
    assert answer["best"] == answer["ranking"][0]["technique"]
    assert len(answer["ranking"]) == len(QUICK["techniques"])
    assert answer["cache"] == {"hits": 0, "misses": 3}
    assert answer["scenario"] is None
    status, body, _ = _request(server, "/advise", QUICK)
    assert json.loads(body)["cache"] == {"hits": 3, "misses": 0}


def test_http_validation_is_structured_json(server):
    status, body, headers = _request(
        server, "/advise", {**QUICK, "scenario": "bogus"}
    )
    assert status == 400
    assert headers["Content-Type"] == "application/json"
    answer = json.loads(body)
    assert answer["error"] == "validation"
    assert answer["field"] == "scenario"
    assert "bogus" in answer["message"]
    assert "slow-quarter" in answer["message"]


def test_http_rejects_malformed_json(server):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/advise", data=b"{not json"
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=30)
    assert err.value.code == 400
    assert json.loads(err.value.read())["error"] == "validation"


def test_http_unknown_route_is_404_json(server):
    status, body, _ = _request(server, "/nope")
    assert status == 404
    assert json.loads(body)["error"] == "not_found"


def test_http_discovery_routes(server):
    status, body, _ = _request(server, "/healthz")
    assert (status, json.loads(body)) == (200, {"status": "ok"})
    status, body, _ = _request(server, "/techniques")
    assert json.loads(body)["techniques"] == technique_names()
    status, body, _ = _request(server, "/scenarios")
    assert "slow-quarter" in json.loads(body)["scenarios"]


def test_http_metrics_exposition(server):
    _request(server, "/advise", QUICK)
    _request(server, "/advise", QUICK)
    status, body, headers = _request(server, "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    text = body.decode()
    assert "# TYPE repro_serve_requests_total counter" in text
    assert "repro_serve_requests_total 2" in text
    assert "# TYPE repro_serve_request_seconds histogram" in text
    assert "repro_serve_cache_hit_rate 0.5" in text


def test_http_handler_disables_nagle():
    """Replies leave in two sends (headers, body); with Nagle on, every
    keep-alive answer waits for the client's delayed ACK."""
    from repro.serve.http import _Handler

    assert _Handler.disable_nagle_algorithm is True


def test_http_keep_alive_round_trip(server):
    """Several requests share one persistent connection, and none of
    them waits on the delayed-ACK timer (~40 ms each on Linux)."""
    import http.client
    import time

    conn = http.client.HTTPConnection(
        "127.0.0.1", server.server_address[1], timeout=30
    )
    try:
        conn.request("GET", "/healthz")
        first = conn.getresponse()
        assert first.status == 200
        assert json.loads(first.read()) == {"status": "ok"}
        sock = conn.sock
        for _ in range(3):
            conn.request("POST", "/advise", body=json.dumps(QUICK),
                         headers={"Content-Type": "application/json"})
            answer = conn.getresponse()
            assert answer.status == 200
            assert json.loads(answer.read())["best"]
        assert conn.sock is sock  # no reconnect between requests
        start = time.perf_counter()
        for _ in range(10):
            conn.request("GET", "/healthz")
            conn.getresponse().read()
        assert time.perf_counter() - start < 0.35
        assert conn.sock is sock
    finally:
        conn.close()


def test_cli_serve_parser_defaults():
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "--port", "0"])
    assert args.command == "serve"
    assert args.host == "127.0.0.1"
    assert args.port == 0
    assert args.simulator == "direct-batch"
    assert args.runs is None
