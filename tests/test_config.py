"""Config loading, validation, env overrides, and identity hashing."""

import os
import re
from pathlib import Path

import pytest
import yaml

from recollab import config
from recollab.config import (
    BackendSettings,
    ConfigError,
    MetricsSettings,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
)
from recollab.crs import TuningParams


def minimal_yaml(tmp_path, body=""):
    path = tmp_path / "run.yaml"
    path.write_text(body, encoding="utf-8")
    return path


def test_empty_config_carries_defaults(tmp_path):
    cfg = load_config(minimal_yaml(tmp_path))
    assert cfg.pipeline == "sfa"
    assert cfg.seed == 0
    assert cfg.sfa.threshold == 0.2
    assert cfg.sfa.focus is True
    assert cfg.crs.k == 5
    assert cfg.crs.nms_threshold == 0.7
    assert cfg.tuning.positives == 10000
    assert cfg.tuning.negatives == 2500
    assert cfg.metrics.ks == (1, 5)
    assert cfg.base_dir == tmp_path


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/run.yaml")


def test_invalid_yaml(tmp_path):
    with pytest.raises(ConfigError, match="YAML"):
        load_config(minimal_yaml(tmp_path, "a: [unclosed"))


def test_the_config_reads_the_same_under_either_yaml_parser(monkeypatch, tmp_path):
    example = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"
    bad = minimal_yaml(tmp_path, "a: [unclosed")
    assert config._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    loaded = load_config(example)
    with pytest.raises(ConfigError, match="config is not valid YAML"):
        load_config(bad)
    monkeypatch.setattr(config, "_YAML_LOADER", yaml.SafeLoader)
    assert load_config(example) == loaded
    with pytest.raises(ConfigError, match="config is not valid YAML"):
        load_config(bad)


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="pipelines"):
        config_from_dict({"pipelines": "sfa"})


def test_unknown_section_keys_rejected():
    with pytest.raises(ConfigError, match="sfa"):
        config_from_dict({"sfa": {"treshold": 0.2}})
    with pytest.raises(ConfigError, match="crs"):
        config_from_dict({"crs": {"nms": 0.7}})
    with pytest.raises(ConfigError, match="tuning"):
        config_from_dict({"tuning": {"positive": 10}})


def test_force_level_is_not_a_config_key():
    with pytest.raises(ConfigError, match="force_level"):
        config_from_dict({"sfa": {"force_level": "fast"}})


def test_bad_pipeline_and_split_and_role():
    with pytest.raises(ConfigError, match="pipeline"):
        config_from_dict({"pipeline": "warp"})
    with pytest.raises(ConfigError, match="split"):
        config_from_dict({"datasets": {"dev": "x.jsonl"}})
    with pytest.raises(ConfigError, match="role"):
        config_from_dict(
            {"backends": {"oracle": {"kind": "replay", "fixtures": "f"}}}
        )


def test_backend_settings_validation():
    with pytest.raises(ConfigError, match="kind"):
        BackendSettings(kind="grpc")
    with pytest.raises(ConfigError, match="endpoint"):
        BackendSettings(kind="http")
    with pytest.raises(ConfigError, match="fixtures"):
        BackendSettings(kind="replay")
    with pytest.raises(ConfigError, match="timeout"):
        BackendSettings(kind="replay", fixtures="f", timeout=0)
    with pytest.raises(ConfigError, match="retries"):
        BackendSettings(kind="replay", fixtures="f", retries=-1)
    with pytest.raises(ConfigError, match="concurrency"):
        BackendSettings(kind="replay", fixtures="f", concurrency=0)
    with pytest.raises(ConfigError, match="coordinate_space"):
        BackendSettings(kind="http", endpoint="http://x", coordinate_space=0)
    with pytest.raises(ConfigError, match="cost_unit"):
        BackendSettings(kind="replay", fixtures="f", cost_unit=-1)


def test_replay_backend_rejects_coordinate_space():
    # replay adapters never rescale, so the setting would be silently ignored
    with pytest.raises(ConfigError, match="coordinate_space"):
        BackendSettings(kind="replay", fixtures="f", coordinate_space=1000)
    assert BackendSettings(kind="http", endpoint="http://x", coordinate_space=1000)
    # extractor and selector replies carry no boxes, so there is nothing to rescale
    entry = {"kind": "http", "endpoint": "http://x", "coordinate_space": 1000}
    for role in ("extractor", "selector"):
        with pytest.raises(ConfigError, match=f"backends.{role}: coordinate_space"):
            config_from_dict({"backends": {role: entry}})
    config_from_dict({"backends": {"detector": entry, "grounder": entry, "mllm": entry}})


@pytest.mark.parametrize(
    "data, message",
    [
        ({"seed": "abc"}, "seed in config must be an integer, got 'abc'"),
        ({"seed": True}, "seed in config must be an integer, got True"),
        ({"output_dir": None}, "output_dir in config must be a string, got None"),
        ({"pipeline": 5}, "pipeline in config must be a string"),
        ({"expected_counts": {"test": 5}}, "test in expected_counts must be a mapping, got 5"),
        (
            {"expected_counts": {"test": {"total": "many"}}},
            "total in expected_counts.test must be an integer, got 'many'",
        ),
        ({"expected_counts": [1, 2]}, "expected_counts in config must be a mapping, got [1, 2]"),
        (
            {
                "datasets": {"test": "t.jsonl"},
                "expected_counts": {"test": {"total": 4, "negative_images": 0, "difficulty.L4": 0}},
            },
            "unknown count key(s) in expected_counts.test: difficulty.L4, negative_images "
            "(known: total, pairs, positive, negative_expression, negative_image, "
            "difficulty.L1, difficulty.L2, difficulty.L3, difficulty.unlabeled)",
        ),
        ({"sfa": {"focus": "no"}}, "focus in sfa must be true or false, got 'no'"),
        ({"sfa": {"threshold": "0.2"}}, "threshold in sfa must be a number"),
        ({"tuning": {"include_none": "false"}}, "include_none in tuning must be true or false"),
        ({"crs": {"include_none": "false"}}, "include_none in crs must be true or false"),
        ({"crs": {"k": 2.5}}, "k in crs must be an integer, got 2.5"),
        (
            {"backends": {"grounder": {"kind": "http", "endpoint": "http://g/", "retries": 1.5}}},
            "retries in backends.grounder must be an integer",
        ),
        (
            {"backends": {"mllm": {"kind": "http", "endpoint": "http://m/", "coordinate_space": "1000"}}},
            "coordinate_space in backends.mllm must be an integer",
        ),
        ({"metrics": {"ks": "15"}}, "ks in metrics must be a list, got '15'"),
        ({"metrics": {"ks": [1.9, 5]}}, "ks[0] in metrics must be an integer, got 1.9"),
        ({"metrics": {"ks": ["1", "5"]}}, "ks[0] in metrics must be an integer, got '1'"),
        ({"metrics": {"ks": [True]}}, "ks[0] in metrics must be an integer, got True"),
        ({"metrics": {"ks": 5}}, "ks in metrics must be a list, got 5"),
        ({"datasets": {"test": 5}}, "test in datasets must be a string, got 5"),
        (
            {"backends": {"grounder": {"kind": "http", "endpoint": "http://g/", "retry": 1}}},
            "unknown key(s) in backends.grounder: retry",
        ),
        ({"base_dir": "/elsewhere"}, "unknown key(s) in config: base_dir"),
        (
            {"backends": {5: {"kind": "replay", "fixtures": "f"}}},
            "a key in backends must be a string, got 5",
        ),
        # a missing required key, and a refusal by the settings type, name the section
        ({"backends": {"grounder": {}}}, "kind in backends.grounder is required"),
        (
            {"backends": {"grounder": {"endpoint": "http://g/"}}},
            "kind in backends.grounder is required",
        ),
        (
            {"backends": {"grounder": {"kind": "http"}}},
            "bad backends.grounder: http backend needs an endpoint",
        ),
        (
            {"backends": {"detector": {"kind": "replay", "fixtures": "f", "timeout": 0}}},
            "bad backends.detector: timeout must be positive, got 0",
        ),
        (
            {"backends": {"mllm": {"kind": "rpc"}}},
            "bad backends.mllm: backend kind must be http or replay, got 'rpc'",
        ),
    ],
)
def test_a_setting_of_the_wrong_type_is_refused(data, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(data)


def test_settings_of_their_declared_types_load_as_written():
    cfg = config_from_dict(
        {
            "seed": 3,
            "output_dir": "elsewhere",
            "sfa": {"threshold": 1, "focus": False},
            "tuning": {"include_none": False, "negatives": 0},
            "backends": {"mllm": {"kind": "http", "endpoint": "http://m/", "coordinate_space": None}},
            "datasets": {"test": "t.jsonl"},
            "expected_counts": {"test": {"total": 4}},
        }
    )
    assert (cfg.seed, cfg.output_dir, cfg.sfa.threshold, cfg.sfa.focus) == (3, "elsewhere", 1, False)
    assert cfg.tuning.include_none is False
    assert cfg.backends["mllm"].coordinate_space is None
    assert cfg.expected_counts == {"test": {"total": 4}}


def test_tuning_and_metrics_validation():
    with pytest.raises(ValueError):
        TuningParams(positives=-1)
    with pytest.raises(ValueError, match="include_none"):
        TuningParams(negatives=5, include_none=False)
    TuningParams(negatives=0, include_none=False)
    with pytest.raises(ConfigError):
        MetricsSettings(ks=())
    with pytest.raises(ConfigError):
        MetricsSettings(ks=(0,))


def test_dataset_and_backend_lookup(tmp_path):
    cfg = config_from_dict(
        {
            "datasets": {"test": "data/test.jsonl"},
            "backends": {"grounder": {"kind": "replay", "fixtures": "fx"}},
        },
        base_dir=tmp_path,
    )
    assert cfg.dataset_path("test") == tmp_path / "data/test.jsonl"
    assert cfg.backends["grounder"].kind == "replay"
    with pytest.raises(ConfigError, match="split"):
        cfg.dataset_path("train")


def test_check_paths(tmp_path):
    (tmp_path / "fx").mkdir()
    (tmp_path / "test.jsonl").write_text("", encoding="utf-8")
    good = config_from_dict(
        {
            "datasets": {"test": "test.jsonl"},
            "backends": {"grounder": {"kind": "replay", "fixtures": "fx"}},
        },
        base_dir=tmp_path,
    )
    good.check_paths()
    missing_data = config_from_dict({"datasets": {"test": "nope.jsonl"}}, base_dir=tmp_path)
    with pytest.raises(ConfigError, match="dataset"):
        missing_data.check_paths()
    missing_fx = config_from_dict(
        {"backends": {"grounder": {"kind": "replay", "fixtures": "nope"}}},
        base_dir=tmp_path,
    )
    with pytest.raises(ConfigError, match="fixture"):
        missing_fx.check_paths()


def test_check_paths_checks_the_named_splits_and_roles_or_every_one(tmp_path):
    (tmp_path / "fx").mkdir()
    (tmp_path / "test.jsonl").write_text("", encoding="utf-8")
    cfg = config_from_dict(
        {
            "datasets": {"test": "test.jsonl", "train": "absent.jsonl"},
            "backends": {
                "grounder": {"kind": "replay", "fixtures": "fx"},
                "mllm": {"kind": "replay", "fixtures": "absent"},
            },
        },
        base_dir=tmp_path,
    )
    cfg.check_paths(["test"], ["grounder"])
    cfg.check_paths(["test"], ())
    with pytest.raises(ConfigError, match="split 'train' not found"):
        cfg.check_paths(["train"], ())
    with pytest.raises(ConfigError, match="role 'mllm' not found"):
        cfg.check_paths(["test"], ["grounder", "mllm"])
    # no arguments: every configured split and role
    with pytest.raises(ConfigError, match="split 'train' not found"):
        cfg.check_paths()
    with pytest.raises(ConfigError, match="role 'mllm' not found"):
        cfg.check_paths(splits=["test"])


def test_env_overrides_endpoint_and_token(monkeypatch):
    monkeypatch.setenv("RECOLLAB_MLLM_ENDPOINT", "http://10.0.0.5:8000/v1")
    monkeypatch.setenv("RECOLLAB_MLLM_TOKEN", "supersecret")
    cfg = config_from_dict(
        {"backends": {"mllm": {"kind": "http", "endpoint": "http://original/"}}}
    )
    assert cfg.backends["mllm"].endpoint == "http://10.0.0.5:8000/v1"
    assert cfg.backends["mllm"].token == "supersecret"


def test_env_override_does_not_leak_to_other_roles(monkeypatch):
    monkeypatch.setenv("RECOLLAB_MLLM_TOKEN", "supersecret")
    cfg = config_from_dict(
        {
            "backends": {
                "grounder": {"kind": "http", "endpoint": "http://g/"},
                "mllm": {"kind": "http", "endpoint": "http://m/"},
            }
        }
    )
    assert cfg.backends["grounder"].token is None
    assert cfg.backends["mllm"].token == "supersecret"


def test_config_to_dict_redacts_token():
    cfg = config_from_dict(
        {"backends": {"mllm": {"kind": "http", "endpoint": "http://m/", "token": "hush"}}}
    )
    data = config_to_dict(cfg)
    assert data["backends"]["mllm"]["token"] == "***"
    assert "hush" not in str(data)


def test_no_repr_shows_the_token():
    from recollab.backends.http import HttpClient, HttpGrounder

    cfg = config_from_dict(
        {"backends": {"grounder": {"kind": "http", "endpoint": "http://g/", "token": "sekrit"}}}
    )
    grounder = HttpGrounder(HttpClient(cfg.backends["grounder"]))
    for shown in (repr(cfg), repr(cfg.backends["grounder"]), repr(grounder)):
        assert "sekrit" not in shown
    assert cfg.backends["grounder"].token == "sekrit"

def test_config_hash_stable_and_sensitive(tmp_path):
    base = {"pipeline": "crs", "seed": 7, "datasets": {"test": "t.jsonl"}}
    a = config_from_dict(base, base_dir="/somewhere")
    b = config_from_dict(base, base_dir="/elsewhere")
    # moving the file does not change identity
    assert config_hash(a) == config_hash(b)
    c = config_from_dict({**base, "seed": 8})
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 64


@pytest.mark.parametrize(
    "section, value",
    [
        ("output_dir", "elsewhere"),
        ("datasets", {"test": "other.jsonl"}),
        ("sfa", {"threshold": 0.3}),
        ("crs", {"k": 3}),
        ("tuning", {"positives": 5}),
        ("metrics", {"ks": [1, 3]}),
        ("expected_counts", {"test": {"positive": 9605}}),
    ],
)
def test_config_hash_covers_every_section(section, value):
    base = config_from_dict({"datasets": {"test": "t.jsonl"}})
    changed = config_from_dict({"datasets": {"test": "t.jsonl"}, section: value})
    assert config_hash(base) != config_hash(changed)


def test_config_hash_covers_env_overrides(monkeypatch):
    body = {"backends": {"mllm": {"kind": "http", "endpoint": "http://a/"}}}
    plain = config_from_dict(body)
    monkeypatch.setenv("RECOLLAB_MLLM_ENDPOINT", "http://b/")
    overridden = config_from_dict(body)
    assert config_hash(plain) != config_hash(overridden)


def test_config_hash_ignores_token_value(monkeypatch):
    body = {"backends": {"mllm": {"kind": "http", "endpoint": "http://a/", "token": "t1"}}}
    h1 = config_hash(config_from_dict(body))
    body["backends"]["mllm"]["token"] = "t2"
    h2 = config_hash(config_from_dict(body))
    # rotating a secret must not invalidate resumable runs
    assert h1 == h2


def test_expected_counts_round_trip():
    cfg = config_from_dict(
        {
            "datasets": {"test": "t.jsonl"},
            "expected_counts": {"test": {"positive": 9605, "pairs": 18321}},
        }
    )
    assert cfg.expected_counts["test"]["pairs"] == 18321
    with pytest.raises(ConfigError):
        config_from_dict({"expected_counts": {"dev": {}}})
    # counts for a split with no dataset would never be checked
    with pytest.raises(ConfigError, match=r"expected_counts\.val: split 'val' has no dataset"):
        config_from_dict(
            {"datasets": {"test": "t.jsonl"}, "expected_counts": {"val": {"total": 999}}}
        )


def test_example_config_hash_is_pinned(monkeypatch):
    # logs written under the example config must stay reportable
    for key in list(os.environ):
        if key.startswith("RECOLLAB_"):
            monkeypatch.delenv(key)
    example = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"
    assert config_hash(load_config(example)) == (
        "82770fac159d0a5a7f55cf54f85187ccbd3a61bbe151d2982cb45b2b54610af3"
    )
