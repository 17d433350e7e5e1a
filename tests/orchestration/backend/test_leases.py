"""Tests for TTL work claims (lease manager + heartbeat renewal)."""

import pytest

from repro.errors import ExperimentError
from repro.orchestration.backend.leases import (
    DEFAULT_LEASE_TTL,
    LeaseManager,
    LeaseRenewer,
)
from repro.telemetry.heartbeat import (
    add_beat_listener,
    beat_listeners,
    make_heartbeat,
    remove_beat_listener,
)


class Clock:
    """A settable clock so expiry is deterministic, not slept for."""

    def __init__(self, now: float = 1_000.0) -> None:
        self.now = now

    def advance(self, secs: float) -> None:
        self.now += secs

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return Clock()


def manager_for(tmp_path, worker, clock, ttl=10.0):
    return LeaseManager(
        tmp_path / "leases.sqlite", worker, ttl_secs=ttl, clock=clock
    )


class TestClaims:
    def test_claim_wins_unclaimed_hashes(self, tmp_path, clock):
        with manager_for(tmp_path, "a", clock) as manager:
            assert manager.claim(["h1", "h2"]) == ["h1", "h2"]

    def test_limit_bounds_a_round(self, tmp_path, clock):
        with manager_for(tmp_path, "a", clock) as manager:
            assert manager.claim(["h1", "h2", "h3"], limit=2) == ["h1", "h2"]

    def test_live_lease_blocks_other_workers(self, tmp_path, clock):
        with manager_for(tmp_path, "a", clock) as a, manager_for(
            tmp_path, "b", clock
        ) as b:
            assert a.claim(["h1"]) == ["h1"]
            assert b.claim(["h1"]) == []

    def test_expired_lease_is_reclaimable(self, tmp_path, clock):
        with manager_for(tmp_path, "a", clock) as a, manager_for(
            tmp_path, "b", clock
        ) as b:
            a.claim(["h1"])
            clock.advance(11)
            assert b.claim(["h1"]) == ["h1"]
            assert b.holder("h1").worker == "b"

    def test_own_live_lease_reclaims_as_renewal(self, tmp_path, clock):
        with manager_for(tmp_path, "a", clock) as a:
            a.claim(["h1"])
            clock.advance(5)
            assert a.claim(["h1"]) == ["h1"]
            assert a.holder("h1").remaining(clock()) == 10.0

    def test_empty_worker_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="worker id"):
            LeaseManager(tmp_path / "l.sqlite", "")

    def test_non_positive_ttl_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="ttl"):
            LeaseManager(tmp_path / "l.sqlite", "a", ttl_secs=0)


class TestRenewRelease:
    def test_renew_extends_live_leases_only(self, tmp_path, clock):
        with manager_for(tmp_path, "a", clock) as a:
            a.claim(["h1", "h2"])
            clock.advance(11)
            a.claim(["h3"])
            assert a.renew() == 1  # h1/h2 already expired
            assert a.holder("h3").renewals == 1

    def test_release_is_worker_scoped(self, tmp_path, clock):
        with manager_for(tmp_path, "a", clock) as a, manager_for(
            tmp_path, "b", clock
        ) as b:
            a.claim(["h1"])
            b.claim(["h2"])
            b.release(["h1", "h2"])  # must not touch a's lease
            assert a.holder("h1") is not None
            assert a.holder("h2") is None

    def test_release_all(self, tmp_path, clock):
        with manager_for(tmp_path, "a", clock) as a:
            a.claim(["h1", "h2"])
            a.release_all()
            assert a.live() == []

    def test_next_expiry_and_sweep(self, tmp_path, clock):
        with manager_for(tmp_path, "a", clock) as a:
            a.claim(["h1"])
            clock.advance(4)
            assert a.next_expiry() == 6.0
            clock.advance(7)
            assert a.next_expiry() is None
            assert a.sweep_expired() == 1


class TestRenewer:
    def test_cadence_defaults_to_quarter_ttl(self, tmp_path, clock):
        with manager_for(tmp_path, "a", clock, ttl=120.0) as manager:
            renewer = LeaseRenewer(manager)
            assert renewer.interval_secs == 30.0

    def test_renews_after_interval(self, tmp_path, clock, monkeypatch):
        ticks = [0.0]
        monkeypatch.setattr(
            "repro.orchestration.backend.leases.time.monotonic",
            lambda: ticks[0],
        )
        with manager_for(tmp_path, "a", clock) as manager:
            manager.claim(["h1"])
            renewer = LeaseRenewer(manager, interval_secs=5.0)
            renewer.maybe_renew()
            assert renewer.renewals == 0  # inside the interval
            ticks[0] += 6.0
            renewer.maybe_renew()
            assert renewer.renewals == 1
            assert manager.holder("h1").renewals == 1

    def test_rides_the_heartbeat(self, tmp_path, clock, monkeypatch):
        """Mid-trial renewal: the renewer registered as a beat listener
        fires from the engines' heartbeat poll, even with telemetry off."""
        ticks = [0.0]
        monkeypatch.setattr(
            "repro.orchestration.backend.leases.time.monotonic",
            lambda: ticks[0],
        )
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        with manager_for(tmp_path, "a", clock) as manager:
            manager.claim(["h1"])
            renewer = LeaseRenewer(manager, interval_secs=0.0)
            add_beat_listener(renewer)
            try:
                heartbeat = make_heartbeat(
                    engine="superbatch",
                    protocol="angluin",
                    n=8,
                    seed=0,
                    max_steps=None,
                )
                # Listener registered => a heartbeat exists without the
                # telemetry switch, and it carries no sink.
                assert heartbeat is not None
                assert heartbeat.sink is None
                heartbeat.interval = 0.0
                ticks[0] += 1.0
                heartbeat.maybe_beat(steps=100)
                assert renewer.renewals >= 1
            finally:
                remove_beat_listener(renewer)
            assert renewer not in beat_listeners()

    def test_no_listeners_no_telemetry_no_heartbeat(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        assert beat_listeners() == ()
        assert (
            make_heartbeat(
                engine="superbatch",
                protocol="angluin",
                n=8,
                seed=0,
                max_steps=None,
            )
            is None
        )

    def test_failing_listener_never_breaks_a_beat(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")

        def explode(event):
            raise RuntimeError("lease file gone")

        add_beat_listener(explode)
        try:
            heartbeat = make_heartbeat(
                engine="superbatch",
                protocol="angluin",
                n=8,
                seed=0,
                max_steps=None,
            )
            heartbeat.interval = 0.0
            heartbeat.maybe_beat(steps=1)
            heartbeat.maybe_beat(steps=2)
        finally:
            remove_beat_listener(explode)
        captured = capsys.readouterr()
        assert captured.err.count("heartbeat listener failed") == 1


class TestDefaults:
    def test_default_ttl(self):
        assert DEFAULT_LEASE_TTL == 120.0
