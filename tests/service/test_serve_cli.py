"""End-to-end tests of ``python -m repro serve``."""

import io
import json
import re
import threading
import time

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestSoakCommand:
    def test_poisson_soak(self):
        code, output = run_cli(
            "serve", "--members", "24", "--intervals", "5",
            "--churn", "poisson", "--transport", "direct",
        )
        assert code == 0
        assert "serving a 24-member group" in output
        assert "decision" in output  # table header
        assert output.count("\n") >= 7  # banner + header + 5 rows + health
        assert "health: ok" in output

    def test_sim_transport_reports_rho(self):
        code, output = run_cli(
            "serve", "--members", "16", "--intervals", "3",
            "--transport", "sim",
        )
        assert code == 0
        assert "rho" in output

    def test_json_ledger(self):
        code, output = run_cli(
            "serve", "--members", "16", "--intervals", "2",
            "--transport", "direct", "--json",
        )
        assert code == 0
        payload = json.loads(output[output.index("{"):])
        assert payload["schema"] == 1
        assert len(payload["intervals"]) == 2

    def test_flash_churn(self):
        code, output = run_cli(
            "serve", "--members", "16", "--intervals", "4",
            "--churn", "flash", "--transport", "direct",
        )
        assert code == 0


class TestCrashResumeCycle:
    def test_crash_then_resume(self, tmp_path):
        state_dir = str(tmp_path / "state")
        code, output = run_cli(
            "serve", "--members", "24", "--intervals", "8",
            "--transport", "direct", "--state-dir", state_dir,
            "--crash-at", "3", "--crash-point", "post-rekey",
        )
        assert code == 0  # an *injected* crash is the expected outcome
        assert "daemon crashed" in output
        assert "--resume" in output

        code, output = run_cli(
            "serve", "--intervals", "4", "--transport", "direct",
            "--state-dir", state_dir, "--resume",
        )
        assert code == 0
        assert "recovered:" in output
        assert "request(s) replayed" in output
        assert "health: ok" in output

    def test_resume_requires_state_dir(self):
        code, output = run_cli("serve", "--resume")
        assert code == 2
        assert "--resume needs --state-dir" in output

    def test_uninjected_crash_would_fail(self, tmp_path):
        """A clean run with a state dir exits 0 and leaves a snapshot."""
        state_dir = tmp_path / "state"
        code, _ = run_cli(
            "serve", "--members", "8", "--intervals", "2",
            "--transport", "direct", "--state-dir", str(state_dir),
        )
        assert code == 0
        assert (state_dir / "server.json").exists()
        assert (state_dir / "wal.jsonl").exists()


class TestMultiTenantServe:
    def test_tenant_fleet_ticks_and_health(self):
        code, output = run_cli(
            "serve", "--tenants", "6", "--intervals", "4",
            "--churn", "poisson", "--transport", "direct",
        )
        assert code == 0, output
        assert output.count("tick ") == 4
        assert "health: ok (6 tenants" in output

    def test_tenant_fleet_resume(self, tmp_path):
        state_dir = str(tmp_path / "fleet")
        code, output = run_cli(
            "serve", "--tenants", "4", "--intervals", "3",
            "--transport", "direct", "--state-dir", state_dir,
        )
        assert code == 0, output
        code, output = run_cli(
            "serve", "--tenants", "4", "--intervals", "2",
            "--transport", "direct", "--state-dir", state_dir, "--resume",
        )
        assert code == 0, output
        assert "health: ok (4 tenants" in output

    def test_tenant_json_health(self):
        code, output = run_cli(
            "serve", "--tenants", "3", "--intervals", "2",
            "--transport", "direct", "--json",
        )
        assert code == 0, output
        payload = json.loads(output[output.index("{"):])
        assert payload["tenants"] == 3
        assert payload["intervals_total"] >= 3

    def test_tenants_reject_ha_roles(self):
        code, output = run_cli(
            "serve", "--tenants", "4", "--role", "standby",
        )
        assert code == 2
        assert "--tenants" in output


def _leader_port(out, thread, timeout=10.0):
    """The replication port a background leader printed."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        match = re.search(r"replicating on port (\d+)", out.getvalue())
        if match:
            return match.group(1)
        assert thread.is_alive(), out.getvalue()
        time.sleep(0.01)
    raise AssertionError("the leader never printed its port")


def leader_and_standby(state_dir, leader_args, standby_args):
    """Run a leader via ``main()`` on a thread and a standby against it;
    returns ``(leader_code, leader_out, standby_code, standby_out)``."""
    out, codes = io.StringIO(), []
    leader = threading.Thread(
        target=lambda: codes.append(main(
            ["serve", "--role", "leader", "--state-dir", state_dir,
             "--transport", "direct", "--members", "8", *leader_args],
            out=out,
        ))
    )
    leader.start()
    try:
        port = _leader_port(out, leader)
        code, output = run_cli(
            "serve", "--role", "standby", "--state-dir", state_dir,
            "--peer", "127.0.0.1:" + port, "--transport", "direct",
            *standby_args,
        )
    finally:
        leader.join(timeout=30)
    return codes[0], out.getvalue(), code, output


class TestHaRoles:
    def test_leader_alone(self, tmp_path):
        code, output = run_cli(
            "serve", "--role", "leader", "--state-dir", str(tmp_path),
            "--members", "8", "--intervals", "2", "--transport", "direct",
        )
        assert code == 0, output
        assert "replicating on port" in output
        assert "health: ok (role leader, epoch 1, 0 followers, " in output

    def test_leader_needs_state_dir(self):
        code, output = run_cli("serve", "--role", "leader")
        assert code == 2
        assert "--role leader needs --state-dir" in output

    def test_standby_needs_peer(self, tmp_path):
        code, output = run_cli(
            "serve", "--role", "standby", "--state-dir", str(tmp_path),
        )
        assert code == 2
        assert "--role standby needs --state-dir and --peer" in output

    def test_standby_catches_up(self, tmp_path):
        leader_code, _, code, output = leader_and_standby(
            str(tmp_path),
            ["--intervals", "4", "--interval-seconds", "0.15"],
            ["--intervals", "4"],
        )
        assert leader_code == 0
        assert code == 0, output
        assert "standby caught up: interval 4" in output

    def test_standby_promotes_when_the_lease_lapses(self, tmp_path):
        # The leader's pacing outlasts its lease, so the lease has
        # lapsed by the time the finished leader hangs up.
        leader_code, _, code, output = leader_and_standby(
            str(tmp_path),
            ["--intervals", "3", "--interval-seconds", "0.3",
             "--lease-ttl", "0.2"],
            ["--intervals", "6"],
        )
        assert leader_code == 0
        assert code == 0, output
        assert "promoted to leader: epoch 2 at interval 3" in output
        # The promoted daemon ran the three intervals the leader left.
        assert "health: ok (role leader, epoch 2, 3 intervals)" in output


class TestEveryRoleHonoursTheFlags:
    def test_leader_reports_a_bad_churn(self, tmp_path):
        code, output = run_cli(
            "serve", "--role", "leader", "--state-dir", str(tmp_path),
            "--churn", "trace",
        )
        assert code == 2
        assert "error: trace churn needs a --trace-file path" in output

    def test_leader_honours_the_crash_plan(self, tmp_path):
        code, output = run_cli(
            "serve", "--role", "leader", "--state-dir", str(tmp_path),
            "--members", "8", "--intervals", "4", "--transport", "direct",
            "--crash-at", "1",
        )
        assert code == 0, output
        assert "daemon crashed: injected crash at interval 1" in output

    def test_ha_roles_pass_bind_and_port(self, tmp_path, monkeypatch):
        import repro.service

        built, make_backend = [], repro.service.make_backend

        def recording(kind, config, **kwargs):
            built.append((kwargs.get("host"), kwargs.get("port")))
            return make_backend(kind, config, **kwargs)

        monkeypatch.setattr(repro.service, "make_backend", recording)
        flags = ["--bind", "127.0.0.2", "--port", "7441"]
        leader_code, _, code, output = leader_and_standby(
            str(tmp_path),
            ["--intervals", "2", "--interval-seconds", "0.3",
             "--lease-ttl", "0.2", *flags],
            ["--intervals", "3", *flags],
        )
        assert (leader_code, code) == (0, 0), output
        assert "promoted to leader" in output
        assert built == [("127.0.0.2", 7441)] * 2

    def test_leader_closes_the_wire_backend(self, tmp_path):
        before = set(threading.enumerate())
        code, output = run_cli(
            "serve", "--role", "leader", "--state-dir", str(tmp_path),
            "--members", "4", "--intervals", "1", "--transport", "wire",
        )
        assert code == 0, output
        leaked = [
            thread for thread in threading.enumerate()
            if thread.name == "wire-loop" and thread not in before
        ]
        assert leaked == []
