"""HTTP surface of the simulation service (real sockets, tiny studies)."""

import socket
import struct
import time

import pytest

from repro.engine.spec import ENGINE_VERSION
from repro.obs import parse_prometheus
from repro.service import JobRequest, ServiceError

from .conftest import slow_study, tiny_study


def _physics(result_dict):
    out = dict(result_dict)
    out.pop("meta", None)
    return out


class TestEndpoints:
    def test_health_and_stats(self, service):
        client, _ = service
        health = client.health()
        assert health["ok"] is True
        assert health["engine_version"] == ENGINE_VERSION
        stats = client.stats()
        assert stats["scheduler"]["jobs"] == 0
        assert stats["store"]["entries"] == 0

    def test_submit_watch_result(self, service):
        client, _ = service
        study = tiny_study()
        job = client.submit_study(study)
        assert job["state"] in ("queued", "running")
        assert job["points_total"] == study.num_points()
        events = []
        result = client.watch(job["id"], on_event=events.append)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "done"
        assert kinds.count("point") == study.num_points()
        # seq numbering is gapless
        assert [e["seq"] for e in events] == list(range(len(events)))
        # the result endpoint serves the same payload post-completion
        again = client.result(job["id"])
        assert again.to_dict() == result.to_dict()
        # bit-identical physics vs the offline path
        offline = study.run(workers=1)
        assert _physics(result.to_dict()) == _physics(offline.to_dict())

    def test_result_conflicts_while_running(self, service):
        client, _ = service
        job = client.submit_study(slow_study())
        with pytest.raises(ServiceError) as err:
            client.result(job["id"])
        assert err.value.code == 409
        client.cancel(job["id"])

    def test_unknown_job_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client.status("j999999")
        assert err.value.code == 404
        with pytest.raises(ServiceError) as err:
            list(client.stream("j999999"))
        assert err.value.code == 404

    def test_bad_study_payload_is_400(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client.submit(JobRequest(study={"nonsense": True}))
        assert err.value.code == 400

    def test_unknown_endpoint_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/api/nope")
        assert err.value.code == 404

    def test_jobs_listing(self, service):
        client, _ = service
        job = client.submit_study(tiny_study())
        client.watch(job["id"])
        jobs = client.jobs()
        assert [j["id"] for j in jobs] == [job["id"]]
        assert jobs[0]["state"] == "done"

    def test_client_disconnect_is_counted_not_printed(self, service, capfd):
        """A client that resets its connection mid-request bumps
        ``http_client_disconnects_total`` and leaves stderr silent."""
        client, server = service

        def disconnects():
            parsed = parse_prometheus(client.metrics(fmt="prometheus"))
            return sum(
                parsed.get("http_client_disconnects_total", {}).values()
            )

        before = disconnects()
        capfd.readouterr()
        sock = socket.create_connection(server.server_address[:2])
        sock.sendall(b"GET /api/hea")  # no line end: the handler waits
        time.sleep(0.1)
        # SO_LINGER 0: close() sends RST instead of a graceful FIN
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        deadline = time.time() + 5
        while disconnects() == before and time.time() < deadline:
            time.sleep(0.02)
        assert disconnects() == before + 1
        assert capfd.readouterr().err == ""


class TestTenancy:
    def test_inflight_cap_is_429(self, tmp_path):
        import threading

        from repro.service import ServiceClient, create_server

        server = create_server(
            host="127.0.0.1", port=0, cache_dir=tmp_path,
            max_inflight_per_client=1,
        )
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}"
        )
        try:
            first = client.submit_study(slow_study(), client="capped")
            with pytest.raises(ServiceError) as err:
                client.submit_study(
                    tiny_study(seed=99), client="capped"
                )
            assert err.value.code == 429
            # other clients are unaffected
            other = client.submit_study(
                tiny_study(seed=98), client="free"
            )
            client.cancel(first["id"])
            client.watch(other["id"])
        finally:
            server.initiate_shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_cancel_mid_run_stops_at_point_boundary(self, service):
        client, _ = service
        job = client.submit_study(slow_study())
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.status(job["id"])["points_done"] >= 1:
                break
            time.sleep(0.05)
        else:
            pytest.fail("job never completed a point")
        client.cancel(job["id"])
        status = client.status(job["id"])
        assert status["state"] == "cancelled"
        with pytest.raises(ServiceError, match="cancelled"):
            client.watch(job["id"])
        final = client.status(job["id"])
        assert final["points_done"] < final["points_total"]
        # the executor survives and takes new work
        ok = client.submit_study(tiny_study())
        client.watch(ok["id"])

    def test_completed_points_of_cancelled_job_stay_cached(self, service):
        client, server = service
        job = client.submit_study(slow_study())
        while client.status(job["id"])["points_done"] < 1:
            time.sleep(0.05)
        client.cancel(job["id"])
        done = client.status(job["id"])["points_done"]
        assert server.service.store.stats(scan_meta=False)[
            "entries"
        ] >= done


class TestWarmResubmission:
    def test_resubmit_replays_from_store(self, service):
        client, _ = service
        study = tiny_study()
        first = client.submit_study(study)
        result1 = client.watch(first["id"])
        events = []
        second = client.submit_study(study)
        result2 = client.watch(second["id"], on_event=events.append)
        status = client.status(second["id"])
        assert status["cache_hits"] == status["points_total"]
        sources = {
            e["source"] for e in events if e["event"] == "point"
        }
        assert sources == {"cache"}
        assert result2.to_dict()["scenarios"] == (
            result1.to_dict()["scenarios"]
        )

    def test_done_event_reports_store_stats(self, service):
        client, _ = service
        job = client.submit_study(tiny_study())
        done = [
            e
            for e in client.stream(job["id"])
            if e["event"] == "done"
        ]
        assert len(done) == 1
        cache = done[0]["cache"]
        assert cache["name"] == "cache_stats"
        counters = dict(cache["rows"])
        assert counters["entries"] == 2.0
