"""Tests for per-model privacy reports: publish-time sealing, the service
surface (GET /models, GET /models/<name>/privacy, /stats counters), and the
``repro privacy-audit`` CLI's bit-identical ``--check`` replay."""

import shutil
import threading

import pytest

from repro import SERDConfig, load_dataset
from repro.cli import main as cli_main
from repro.privacy.dpsgd import DPSGDConfig
from repro.privacy.report import (
    PrivacyAuditConfig,
    build_privacy_report,
    format_report,
    summarize_report,
)
from repro.runtime.io import atomic_write_json, read_json
from repro.service import JobQueue, ModelRegistry
from repro.service.api import ServiceContext, make_server
from repro.service.client import ServiceClient, ServiceError
from repro.textgen.transformer_backend import TransformerTextSynthesizerConfig


@pytest.fixture
def served(service_registry, tmp_path):
    queue = JobQueue(tmp_path / "queue")
    context = ServiceContext(service_registry, queue)
    server = make_server(context, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield client
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _stored_report(service_registry):
    entry = service_registry.latest("restaurant")
    path = (
        service_registry.version_dir("restaurant", entry.version)
        / "privacy_report.json"
    )
    return entry, path, read_json(path, what="privacy report")


class TestPublishTimeAudit:
    def test_sealed_report_written_on_register(self, service_registry):
        entry, path, report = _stored_report(service_registry)
        assert path.exists()
        assert report["format"] == 1
        assert report["audit"]["seed"] == 5  # the registering config's seed
        assert set(report["nearest_record"]) == {"table_a", "table_b"}
        for side in report["nearest_record"].values():
            assert side["n_synthetic"] >= 1
            assert 0.0 <= side["dcr"]["min"] <= 1.0
        # Rule text backend -> no transformer to attack.
        assert report["membership_inference"]["applicable"] is False
        assert report["claimed_epsilon"] is None

    def test_meta_summary_matches_report(self, service_registry):
        entry, _, report = _stored_report(service_registry)
        assert entry.meta["privacy"] == summarize_report(report)
        assert entry.meta["privacy"]["seed"] == 5

    def test_report_is_integrity_enveloped(self, service_registry):
        import json

        from repro.runtime.integrity import ENVELOPE_KEY

        _, path, _ = _stored_report(service_registry)
        raw = json.loads(path.read_text())
        assert raw[ENVELOPE_KEY]["algo"] == "sha256"

    def test_reloaded_model_reproduces_report_bitwise(self, service_registry):
        _, _, stored = _stored_report(service_registry)
        synthesizer, _ = service_registry.load("restaurant")
        rebuilt = build_privacy_report(
            synthesizer,
            synthesizer._real,
            seed=stored["audit"]["seed"],
            config=PrivacyAuditConfig.from_dict(stored["audit"]["config"]),
        )
        assert rebuilt == stored

    def test_format_report_renders(self, service_registry):
        _, _, report = _stored_report(service_registry)
        text = format_report(report)
        assert "DCR min" in text and "MIA" in text

    def test_audit_config_validation(self):
        with pytest.raises(ValueError):
            PrivacyAuditConfig(sample_entities=0)
        with pytest.raises(ValueError):
            PrivacyAuditConfig(singling_threshold=1.5)
        with pytest.raises(ValueError):
            PrivacyAuditConfig.from_dict({"not_a_knob": 1})


class TestServiceSurface:
    def test_models_listing_carries_privacy_summary(self, served):
        (meta,) = [m for m in served.models() if m["name"] == "restaurant"]
        assert meta["privacy"]["seed"] == 5
        assert meta["privacy"]["exact_copies"] >= 0

    def test_privacy_endpoint_serves_sealed_report(
        self, served, service_registry
    ):
        _, _, stored = _stored_report(service_registry)
        payload = served.model_privacy("restaurant")
        assert payload["model"] == "restaurant"
        assert payload["report"] == stored
        explicit = served.model_privacy("restaurant", payload["version"])
        assert explicit == payload

    def test_privacy_endpoint_unknown_model_404(self, served):
        with pytest.raises(ServiceError) as excinfo:
            served.model_privacy("nope")
        assert excinfo.value.status == 404

    def test_privacy_endpoint_unknown_version_404(self, served):
        with pytest.raises(ServiceError) as excinfo:
            served.model_privacy("restaurant", "v999")
        assert excinfo.value.status == 404

    def test_stats_expose_audit_counters(self, served):
        served.model_privacy("restaurant")
        counters = served.stats()["privacy_audit"]
        assert counters["privacy_reports_served"] >= 1
        assert counters["audits_run"] >= 1  # the session fixture's publish
        assert counters["dcr_pairs_scored"] > 0


class TestPrivacyAuditCli:
    def test_check_replays_bit_identically(self, service_registry, capsys):
        exit_code = cli_main(
            [
                "privacy-audit",
                "--registry", str(service_registry.root),
                "--model", "restaurant",
                "--check",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "OK: rebuilt report matches" in out

    def test_check_fails_on_tampered_report(
        self, service_registry, tmp_path, capsys
    ):
        # Clone the published version into a scratch registry and reseal a
        # doctored report (valid envelope, different payload): --check must
        # catch the payload drift even though the checksum is intact.
        entry = service_registry.latest("restaurant")
        source = service_registry.version_dir("restaurant", entry.version)
        target_root = tmp_path / "registry"
        target = target_root / "restaurant" / entry.version
        shutil.copytree(source, target)
        report = read_json(target / "privacy_report.json", what="pr")
        report["claimed_epsilon"] = 123.0
        atomic_write_json(target / "privacy_report.json", report, indent=2)
        exit_code = cli_main(
            [
                "privacy-audit",
                "--registry", str(target_root),
                "--model", "restaurant",
                "--check",
            ]
        )
        assert exit_code == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_out_writes_sealed_report(self, service_registry, tmp_path):
        out_file = tmp_path / "report.json"
        exit_code = cli_main(
            [
                "privacy-audit",
                "--registry", str(service_registry.root),
                "--model", "restaurant",
                "--out", str(out_file),
            ]
        )
        assert exit_code == 0
        written = read_json(out_file, what="report")
        _, _, stored = _stored_report(service_registry)
        assert written == stored

    def test_usage_errors(self, capsys):
        assert cli_main(["privacy-audit"]) == 2
        assert cli_main(["privacy-audit", "--registry", "x"]) == 2
        assert cli_main(["privacy-audit", "--export", "x"]) == 2
        capsys.readouterr()

    def test_export_mode_runs_data_attacks(
        self, service_real, tmp_path, capsys
    ):
        from repro.schema.io import save_dataset

        # Audit the real dataset "as an export" against itself: every
        # record is an exact copy, which the battery must call out.
        export_dir = tmp_path / "export"
        save_dataset(service_real, export_dir)
        out_file = tmp_path / "report.json"
        exit_code = cli_main(
            [
                "privacy-audit",
                "--export", str(export_dir),
                "--dataset", "restaurant",
                "--scale", "0.08",
                "--seed", "5",
                "--out", str(out_file),
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "exact copies" in out
        report = read_json(out_file, what="report")
        assert report["membership_inference"]["applicable"] is False
        side = report["nearest_record"]["table_a"]
        assert side["exact_copies"] == side["n_synthetic"]
        assert side["dcr"]["min"] == pytest.approx(0.0)


class TestLoadedDPModel:
    """A DP model's accountant is saved with its text backends, so a loaded
    model reports the ε it was sealed with."""

    def test_loaded_epsilon_matches_sealed_claim(self, tmp_path, capsys):
        config = SERDConfig(
            seed=7, text_backend="transformer", dp=DPSGDConfig(),
            reject_entities=False,
            transformer=TransformerTextSynthesizerConfig(
                n_buckets=2, training_iterations=2, n_candidates=2,
                pairs_per_bucket=8, max_length=12,
            ),
        )
        registry = ModelRegistry(tmp_path / "registry")
        entry = registry.register(
            "restaurant", load_dataset("restaurant", scale=0.03, seed=7), config,
            train_gan=False,
        )
        stored = read_json(
            registry.version_dir("restaurant", entry.version)
            / "privacy_report.json",
            what="privacy report",
        )
        synthesizer, _ = registry.load("restaurant")
        epsilons = [
            backend.epsilon(stored["delta"])
            for backend in synthesizer._text_backends.values()
        ]
        assert len(epsilons) == 2 and stored["claimed_epsilon"] > 1.0
        assert float(sum(epsilons)) == stored["claimed_epsilon"]
        exit_code = cli_main(
            [
                "privacy-audit",
                "--registry", str(registry.root),
                "--model", "restaurant",
                "--check",
            ]
        )
        assert exit_code == 0
        assert "OK: rebuilt report matches" in capsys.readouterr().out
