"""Tests for ProfilerConfig validation and derived quantities."""

import pytest

from repro.common.config import ProfilerConfig
from repro.common.errors import ProfilerError


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = ProfilerConfig()
        assert cfg.workers == 1

    @pytest.mark.parametrize(
        "field",
        ["signature_slots", "workers", "chunk_size", "queue_depth",
         "rebalance_interval_chunks"],
    )
    def test_positive_fields_reject_zero_and_negative(self, field):
        for bad in (0, -1):
            with pytest.raises(ProfilerError):
                ProfilerConfig(**{field: bad})

    def test_hot_addresses_allows_zero(self):
        assert ProfilerConfig(hot_addresses=0).hot_addresses == 0

    def test_hot_addresses_rejects_negative(self):
        with pytest.raises(ProfilerError):
            ProfilerConfig(hot_addresses=-1)


class TestDerived:
    def test_slots_per_worker_divides_total(self):
        cfg = ProfilerConfig(signature_slots=1_000_000, workers=16)
        assert cfg.slots_per_worker == 62_500

    def test_slots_per_worker_never_zero(self):
        cfg = ProfilerConfig(signature_slots=3, workers=8)
        assert cfg.slots_per_worker == 1

    def test_with_returns_modified_copy(self):
        cfg = ProfilerConfig()
        cfg2 = cfg.with_(workers=8, queue_depth=4)
        assert cfg2.workers == 8
        assert cfg2.queue_depth == 4
        assert cfg.workers == 1  # original untouched

    def test_with_validates(self):
        with pytest.raises(ProfilerError):
            ProfilerConfig().with_(workers=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            ProfilerConfig().workers = 2  # type: ignore[misc]
