"""Tests for the machine configurations (paper Figure 8)."""

import dataclasses

import pytest

from repro.params import (
    figure8_rows, make_model, model_a, model_b, small_test_model,
)


class TestModelA:
    def test_figure8_values(self):
        a = model_a()
        assert a.cores == 32
        assert a.chips == 32 and a.cores_per_chip == 1
        assert a.l1_latency == 3
        assert a.l2_latency == 10
        assert a.local_mem_latency == 186
        assert a.remote_mem_latency == 186
        assert a.lcu_ordinary_entries == 8
        assert a.lcu_latency == 3
        assert a.num_lrts == 32
        assert a.lrt_entries == 512 and a.lrt_assoc == 16
        assert a.lrt_latency == 6
        assert a.global_order


class TestModelB:
    def test_figure8_values(self):
        b = model_b()
        assert b.cores == 32
        assert b.chips == 4 and b.cores_per_chip == 8
        assert b.l2_latency == 16
        assert b.local_mem_latency == 210
        assert b.remote_mem_latency == 315
        assert b.lcu_ordinary_entries == 16
        assert b.num_lrts == 8
        assert not b.global_order

    def test_chip_of_core(self):
        b = model_b()
        assert b.chip_of_core(0) == 0
        assert b.chip_of_core(7) == 0
        assert b.chip_of_core(8) == 1
        assert b.chip_of_core(31) == 3


class TestValidation:
    def test_overrides(self):
        a = model_a(chips=4, num_lrts=4)
        assert a.cores == 4

    def test_bad_line_size(self):
        with pytest.raises(ValueError):
            model_a(line_size=48)

    def test_bad_core_count(self):
        with pytest.raises(ValueError):
            model_a(chips=0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            model_a().chips = 4  # type: ignore[misc]


class TestMakeModel:
    @pytest.mark.parametrize("name", ["A", "B", "T", "a", "b"])
    def test_letters_name_their_model(self, name):
        assert make_model(name).name == name.upper()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown model 'Z'"):
            make_model("Z")


class TestFigure8Table:
    def test_rows_cover_both_models(self):
        rows = figure8_rows()
        assert rows[0] == ["Parameter", "Model A", "Model B"]
        labels = [r[0] for r in rows[1:]]
        assert "LCU entries" in labels
        assert "per-LRT entries" in labels
        # every row has one value per model
        assert all(len(r) == 3 for r in rows)

    def test_known_cells(self):
        rows = {r[0]: r[1:] for r in figure8_rows()[1:]}
        assert rows["Chips"] == ["32", "4"]
        assert rows["LCU entries"] == ["8+2", "16+2"]

    def test_small_model_is_small(self):
        t = small_test_model()
        assert t.cores <= 8
