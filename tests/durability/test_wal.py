"""WAL codec + segments: round trips, torn tails, corruption, power loss."""

import struct

import pytest

from repro.durability.wal import (
    DEFAULT_SEGMENT_BYTES,
    WriteAheadLog,
    encode_record,
)
from repro.errors import DurabilityError, WALCorruptionError
from repro.testing.faults import FaultInjector, InjectedCrash


def records(n, start=0):
    return [{"type": "batch", "commit_id": i, "ops": [{"op": "add_vertex",
             "id": f"v{i}", "type": "T"}]} for i in range(start, start + n)]


class TestCodec:
    def test_frame_layout(self):
        frame = encode_record({"a": 1})
        length, _crc = struct.unpack_from("<II", frame)
        assert length == len(frame) - 8
        assert frame[8:] == b'{"a": 1}'

    def test_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for record in records(5):
            wal.append(record)
        wal.sync()
        assert wal.replay() == records(5)

    def test_round_trip_across_rollover(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=128)
        for record in records(20):
            wal.append(record, sync=True)
        assert len(wal.segment_paths()) > 1
        assert wal.replay() == records(20)

    def test_reopen_appends_to_new_segment(self, tmp_path):
        # A possibly-torn tail segment is never extended.
        first = WriteAheadLog(tmp_path)
        first.append(records(1)[0], sync=True)
        first.close()
        second = WriteAheadLog(tmp_path)
        second.append(records(1, start=1)[0], sync=True)
        assert len(second.segment_paths()) == 2
        assert second.replay() == records(2)


class TestTornTailTolerance:
    @staticmethod
    def _synced_wal(tmp_path, n=5):
        wal = WriteAheadLog(tmp_path)
        for record in records(n):
            wal.append(record)
        wal.sync()
        wal.close()
        return wal

    def test_truncated_tail_yields_prefix(self, tmp_path):
        self._synced_wal(tmp_path)
        segment = WriteAheadLog(tmp_path).segment_paths()[-1]
        data = segment.read_bytes()
        for chop in (1, 7, len(encode_record(records(5)[4])) - 1):
            segment.write_bytes(data[:-chop])
            assert WriteAheadLog(tmp_path).replay() == records(4)

    def test_flipped_checksum_byte_in_final_record_tolerated(self, tmp_path):
        self._synced_wal(tmp_path)
        segment = WriteAheadLog(tmp_path).segment_paths()[-1]
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0xFF
        segment.write_bytes(bytes(data))
        assert WriteAheadLog(tmp_path).replay() == records(4)

    def test_flipped_byte_mid_log_is_corruption(self, tmp_path):
        # Damage followed by valid data cannot be a crash: refuse to serve.
        self._synced_wal(tmp_path)
        segment = WriteAheadLog(tmp_path).segment_paths()[-1]
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0xFF
        segment.write_bytes(bytes(data))
        with pytest.raises(WALCorruptionError):
            WriteAheadLog(tmp_path).replay()

    def test_torn_record_in_non_final_segment_is_corruption(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=128)
        for record in records(20):
            wal.append(record, sync=True)
        wal.close()
        first = WriteAheadLog(tmp_path).segment_paths()[0]
        first.write_bytes(first.read_bytes()[:-3])
        with pytest.raises(WALCorruptionError, match="non-final segment"):
            WriteAheadLog(tmp_path).replay()

    def test_empty_segment_is_fine(self, tmp_path):
        self._synced_wal(tmp_path, n=2)
        (tmp_path / "wal-00000099.log").write_bytes(b"")
        assert WriteAheadLog(tmp_path).replay() == records(2)

    def test_empty_directory_replays_nothing(self, tmp_path):
        assert WriteAheadLog(tmp_path).replay() == []


class TestPowerLoss:
    def test_unsynced_bytes_vanish(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(records(1)[0])
        wal.append(records(1, start=1)[0], sync=True)  # syncs both
        wal.append(records(1, start=2)[0])  # never synced
        wal.simulate_power_loss()
        assert WriteAheadLog(tmp_path).replay() == records(2)

    def test_fsync_disabled_treats_flush_as_durable(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        for record in records(3):
            wal.append(record)
        wal.simulate_power_loss()
        assert WriteAheadLog(tmp_path).replay() == records(3)

    def test_dead_instance_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.simulate_power_loss()
        with pytest.raises(DurabilityError, match="closed"):
            wal.append(records(1)[0])

    def test_rollover_seals_outgoing_segment(self, tmp_path):
        # A commit split across a rollover keeps its earlier records even
        # if the power dies before the new segment ever syncs.
        wal = WriteAheadLog(tmp_path, segment_bytes=128)
        kept = 0
        while len(wal.segment_paths()) < 2:
            wal.append(records(1, start=kept)[0])
            kept += 1
        wal.simulate_power_loss()
        survived = WriteAheadLog(tmp_path).replay()
        assert survived == records(kept - 1)  # only the unsynced tail died


class TestFaultsAndKnobs:
    def test_torn_write_fault_leaves_recoverable_prefix(self, tmp_path):
        faults = FaultInjector(seed=3)
        wal = WriteAheadLog(tmp_path, faults=faults)
        wal.append(records(1)[0], sync=True)
        faults.plan("wal.append", mode="torn_write", torn_fraction=0.5)
        with pytest.raises(InjectedCrash):
            wal.append(records(1, start=1)[0])
        wal.simulate_power_loss()
        assert WriteAheadLog(tmp_path).replay() == records(1)

    def test_fsync_fault_fires_before_durability(self, tmp_path):
        faults = FaultInjector(seed=3)
        wal = WriteAheadLog(tmp_path, faults=faults)
        faults.arm_crash("wal.fsync")
        with pytest.raises(InjectedCrash):
            wal.append(records(1)[0], sync=True)
        wal.simulate_power_loss()
        assert WriteAheadLog(tmp_path).replay() == []

    def test_fsync_observer_sees_each_sync(self, tmp_path):
        durations = []
        wal = WriteAheadLog(tmp_path, fsync_observer=durations.append)
        wal.append(records(1)[0], sync=True)
        wal.sync()
        assert len(durations) == 2 and all(d >= 0 for d in durations)
        assert wal.syncs == 2

    def test_constructor_knobs(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        assert wal.segment_bytes == DEFAULT_SEGMENT_BYTES == 1 << 20
        assert wal.fsync_enabled is True
        wal = WriteAheadLog(tmp_path, segment_bytes=4096, fsync=False)
        assert wal.segment_bytes == 4096
        assert wal.fsync_enabled is False
        assert WriteAheadLog(tmp_path, segment_bytes=64).segment_bytes == 64
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path, segment_bytes=63)

    def test_engine_and_service_pass_knobs_to_the_wal(self, tmp_path):
        from repro.durability import DurabilityEngine
        from repro.service.server import GraphService

        engine = DurabilityEngine(tmp_path / "engine")
        assert engine.wal.segment_bytes == DEFAULT_SEGMENT_BYTES
        assert engine.wal.fsync_enabled is True
        engine = DurabilityEngine(tmp_path / "tuned", segment_bytes=256,
                                  fsync=False)
        assert (engine.wal.segment_bytes, engine.wal.fsync_enabled) == (256, False)
        service = GraphService.open_durable(tmp_path / "svc", segment_bytes=512,
                                            fsync=False)
        assert service.durability.wal.segment_bytes == 512
        assert service.durability.wal.fsync_enabled is False
        with pytest.raises(ValueError):
            DurabilityEngine(tmp_path / "bad", segment_bytes=8)

    def test_reset_deletes_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(records(1)[0], sync=True)
        wal.reset()
        assert wal.segment_paths() == []
        wal.append(records(1)[0], sync=True)  # still usable after reset
        assert len(wal.replay()) == 1
