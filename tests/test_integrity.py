"""Unit tests for the integrity layer (repro.runtime.integrity / io).

Envelope sealing and verification, quarantine naming, the offline
scrubber behind ``repro verify-artifacts``, the sealing toggle, and the
client/schema agreement on the dataset stream's checksum trailer.
"""

import json

import pytest

from repro.runtime import integrity
from repro.runtime.integrity import (
    CorruptArtifactError,
    QUARANTINE_MARK,
    check_envelope,
    is_quarantined,
    payload_digest,
    quarantine_artifact,
    scrub_tree,
    seal,
)
from repro.runtime.io import atomic_write_json, read_json


@pytest.fixture(autouse=True)
def _fresh_counters():
    integrity.reset_counters()
    yield
    integrity.reset_counters()


class TestEnvelope:
    def test_seal_adds_envelope(self):
        sealed = seal({"a": 1, "b": [1, 2]})
        assert sealed["integrity"]["algo"] == "sha256"
        assert sealed["integrity"]["version"] == 1
        assert len(sealed["integrity"]["digest"]) == 64

    def test_digest_ignores_envelope_key(self):
        payload = {"a": 1}
        assert payload_digest(payload) == payload_digest(seal(payload))

    def test_digest_independent_of_key_order(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest(
            {"b": 2, "a": 1}
        )

    def test_check_envelope_roundtrip(self):
        sealed = seal({"x": "y", "n": 3.5})
        envelope = sealed.pop("integrity")
        ok, reason = check_envelope(sealed, envelope)
        assert ok and reason == ""

    def test_check_envelope_detects_tamper(self):
        sealed = seal({"x": 1})
        envelope = sealed.pop("integrity")
        sealed["x"] = 2
        ok, reason = check_envelope(sealed, envelope)
        assert not ok
        assert "sha256 mismatch" in reason

    def test_check_envelope_rejects_unknown_algo(self):
        ok, reason = check_envelope({"x": 1}, {"algo": "crc32", "digest": ""})
        assert not ok
        assert "unsupported" in reason

    def test_check_envelope_rejects_non_object(self):
        ok, reason = check_envelope({"x": 1}, "not-an-envelope")
        assert not ok
        assert "not object" in reason


class TestReadWriteRoundTrip:
    def test_write_seals_read_verifies_and_strips(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"k": "v"})
        on_disk = json.loads(path.read_text())
        assert "integrity" in on_disk
        assert read_json(path) == {"k": "v"}
        assert integrity.counters()["artifacts_verified"] == 1

    def test_read_quarantines_bitflip(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"k": "value"})
        text = path.read_text().replace('"value"', '"vblue"')
        path.write_text(text)
        with pytest.raises(CorruptArtifactError) as excinfo:
            read_json(path)
        assert not path.exists()
        assert excinfo.value.quarantined_to is not None
        assert excinfo.value.quarantined_to.exists()
        assert is_quarantined(excinfo.value.quarantined_to)
        assert integrity.counters()["corrupt_artifacts_quarantined"] == 1

    def test_read_quarantines_malformed_json(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text('{"torn": tru')
        with pytest.raises(CorruptArtifactError) as excinfo:
            read_json(path)
        assert "malformed" in str(excinfo.value)
        assert not path.exists()

    def test_corrupt_error_is_value_error(self, tmp_path):
        """Legacy ``except ValueError`` recovery paths must keep working."""
        path = tmp_path / "artifact.json"
        path.write_text("garbage")
        with pytest.raises(ValueError):
            read_json(path)

    def test_quarantine_false_leaves_file(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text("garbage")
        with pytest.raises(CorruptArtifactError) as excinfo:
            read_json(path, quarantine=False)
        assert path.exists()
        assert excinfo.value.quarantined_to is None

    def test_pre_envelope_artifact_reads_unverified(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text('{"old": true}')
        assert read_json(path) == {"old": True}

    def test_non_dict_payload_not_sealed(self, tmp_path):
        path = tmp_path / "list.json"
        atomic_write_json(path, [1, 2, 3])
        assert json.loads(path.read_text()) == [1, 2, 3]
        assert read_json(path) == [1, 2, 3]

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_json(tmp_path / "nope.json")


class TestQuarantine:
    def test_quarantine_name_carries_mark_and_digest(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("junk")
        target = quarantine_artifact(path)
        assert target.name.startswith(f"bad.json{QUARANTINE_MARK}")
        assert len(target.name.split(QUARANTINE_MARK)[1]) == 8
        assert not path.exists()

    def test_vanished_file_returns_none(self, tmp_path):
        assert quarantine_artifact(tmp_path / "ghost.json") is None


class TestScrubTree:
    def test_classifies_and_quarantines(self, tmp_path):
        atomic_write_json(tmp_path / "good.json", {"fine": 1})
        (tmp_path / "legacy.json").write_text('{"no_envelope": true}')
        bad = tmp_path / "sub" / "bad.json"
        bad.parent.mkdir()
        atomic_write_json(bad, {"k": "v"})
        bad.write_text(bad.read_text().replace('"v"', '"x"'))
        (tmp_path / "log.jsonl").write_text('{"ok": 1}\n{"torn": ')

        report = scrub_tree(tmp_path)
        assert report["checked"] == 3
        assert report["verified"] == 1
        assert report["unverified"] == 1
        assert len(report["corrupt"]) == 1
        assert report["corrupt"][0]["path"] == str(bad)
        assert len(report["quarantined"]) == 1
        assert not bad.exists()
        assert report["jsonl_files"] == 1
        assert report["jsonl_torn_lines"] == 1

    def test_no_quarantine_mode_reports_only(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("junk")
        report = scrub_tree(tmp_path, quarantine=False)
        assert len(report["corrupt"]) == 1
        assert report["quarantined"] == []
        assert bad.exists()

    def test_undecodable_bytes_are_corrupt_not_a_crash(self, tmp_path):
        """A single flipped byte can leave a file that is not valid UTF-8;
        the scrub must classify it as corrupt, not die in ``read_text``."""
        bad = tmp_path / "bad.json"
        atomic_write_json(bad, {"k": "v"})
        raw = bytearray(bad.read_bytes())
        raw[5] = 0x8A
        bad.write_bytes(raw)
        (tmp_path / "log.jsonl").write_bytes(b'{"ok": 1}\n\x8a\xff\n')

        report = scrub_tree(tmp_path, quarantine=False)
        assert len(report["corrupt"]) == 1
        assert "undecodable bytes" in report["corrupt"][0]["reason"]
        assert report["jsonl_torn_lines"] == 1
        assert bad.exists()

    def test_already_quarantined_skipped(self, tmp_path):
        (tmp_path / f"old.json{QUARANTINE_MARK}deadbeef").write_text("junk")
        report = scrub_tree(tmp_path)
        assert report["checked"] == 0
        assert report["already_quarantined"] == 1

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            scrub_tree(tmp_path / "nope")


class TestStreamTrailerContract:
    def test_client_constants_match_schema_io(self):
        """The client mirrors the trailer format instead of importing it
        (to stay numpy-free); the two must agree byte for byte."""
        from repro.schema import io as schema_io
        from repro.service import client as service_client

        assert (
            service_client._STREAM_TRAILER_PREFIX
            == schema_io.DATASET_STREAM_TRAILER_PREFIX
        )
        assert (
            service_client._STREAM_TRAILER_SUFFIX
            == schema_io.DATASET_STREAM_TRAILER_SUFFIX
        )
        assert (
            service_client._STREAM_TRAILER_LEN
            == schema_io.DATASET_STREAM_TRAILER_LEN
        )

    def test_trailer_regex_matches_emitted_trailer(self):
        from repro.service.client import _STREAM_TRAILER_LEN, _STREAM_TRAILER_RE

        trailer = (
            ', "integrity": {"algo": "sha256", "digest": "' + "a" * 64 + '"}}'
        )
        assert len(trailer) == _STREAM_TRAILER_LEN
        assert _STREAM_TRAILER_RE.fullmatch(trailer)
        assert _STREAM_TRAILER_RE.fullmatch(trailer[:-1]) is None
