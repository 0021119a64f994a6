"""Unit tests for configuration file I/O."""

import json

import pytest

from repro.errors import ConfigError
from repro.frontend.config_io import (
    gpu_config_from_dict,
    gpu_config_to_dict,
    load_gpu_config,
    save_gpu_config,
)
from repro.frontend.presets import RTX_2080_TI

from conftest import make_tiny_gpu


class TestConfigRoundTrip:
    def test_round_trip_tiny(self, tmp_path):
        gpu = make_tiny_gpu()
        path = tmp_path / "gpu.json"
        save_gpu_config(gpu, path)
        assert load_gpu_config(path) == gpu

    def test_round_trip_preset(self, tmp_path):
        path = tmp_path / "2080ti.json"
        save_gpu_config(RTX_2080_TI, path)
        assert load_gpu_config(path) == RTX_2080_TI

    def test_dict_round_trip(self):
        gpu = make_tiny_gpu()
        assert gpu_config_from_dict(gpu_config_to_dict(gpu)) == gpu

    def test_serialized_is_json(self, tmp_path):
        path = tmp_path / "gpu.json"
        save_gpu_config(make_tiny_gpu(), path)
        data = json.loads(path.read_text())
        assert data["num_sms"] == 4
        assert data["format_version"] == 1


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_gpu_config(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_gpu_config(path)

    def test_wrong_version(self):
        data = gpu_config_to_dict(make_tiny_gpu())
        data["format_version"] = 99
        with pytest.raises(ConfigError, match="version"):
            gpu_config_from_dict(data)

    def test_missing_field(self):
        data = gpu_config_to_dict(make_tiny_gpu())
        del data["num_sms"]
        with pytest.raises(ConfigError, match="malformed"):
            gpu_config_from_dict(data)

    def test_non_dict_root(self):
        with pytest.raises(ConfigError):
            gpu_config_from_dict([1, 2, 3])

    def test_invalid_values_fail_validation(self):
        data = gpu_config_to_dict(make_tiny_gpu())
        data["num_sms"] = 0
        with pytest.raises(ConfigError):
            gpu_config_from_dict(data)

    @pytest.mark.parametrize("raw", [
        b'{"num_sms": "\xff\xfe"}',            # not UTF-8
        b'{"num_sms": ' + b"9" * 5000 + b"}",    # an integer too long to parse
        b"[" * 100000 + b"]" * 100000,           # nesting too deep to parse
    ], ids=["invalid-utf8", "5000-digit-int", "deep-nesting"])
    def test_unparseable_file_is_a_config_error(self, tmp_path, raw):
        path = tmp_path / "gpu.json"
        path.write_bytes(raw)
        with pytest.raises(ConfigError):
            load_gpu_config(path)

    def test_directory_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_gpu_config(tmp_path)

    @pytest.mark.parametrize("field,value", [
        ("num_sms", 2.5),
        ("num_sms", True),
        ("memory_partitions", 4.0),
        ("l1.assoc", True),
        ("sm.max_warps", 16.0),
        ("sm.decode_latency", "2"),
        ("sm.exec_units.0.latency", 4.5),
    ])
    def test_integer_fields_reject_other_types(self, field, value):
        data = gpu_config_to_dict(make_tiny_gpu())
        *parents, leaf = field.split(".")
        node = data
        for key in parents:
            node = node[int(key)] if key.isdigit() else node[key]
        node[leaf] = value
        with pytest.raises(ConfigError, match="must be an integer"):
            gpu_config_from_dict(data)

    def test_edited_file_changes_simulated_gpu(self, tmp_path):
        # The paper's workflow: architects edit config files to explore.
        path = tmp_path / "gpu.json"
        save_gpu_config(make_tiny_gpu(), path)
        data = json.loads(path.read_text())
        data["l1"]["latency"] = 99
        path.write_text(json.dumps(data))
        assert load_gpu_config(path).l1.latency == 99
