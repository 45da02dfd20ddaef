"""The command-line pipeline end to end on a small synthetic zone pair."""

import json

import pytest

from builtup import cli, errors


def run(*argv):
    return cli.main([str(a) for a in argv])


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """synth two 64x64 zones and train zone A for one epoch."""
    root = tmp_path_factory.mktemp("cli")
    data, model = root / "data", root / "models" / "A.ghsm"
    registry = root / "registry.json"
    assert run("synth", "--out", data, "--zones", 2, "--size", 64) == 0
    assert run("train", "--zone", "A", "--data", data, "--out", model,
               "--epochs", 1, "--registry", registry) == 0
    return root, data, model, registry


def test_commands_exit_zero_with_ok_manifests(trained, capsys):
    root, data, model, registry = trained
    assert run("predict", "--zone", "A", "--data", data, "--model", model,
               "--out", root / "pred_A") == 0
    assert run("evaluate", "--probs", root / "pred_A", "--reference",
               data / "A", "--report", root / "reports" / "A.json") == 0
    assert run("transfer", "--zone", "B", "--source-zone", "A", "--data",
               data, "--registry", registry, "--out", root / "pred_B") == 0
    assert run("inspect", model) == 0
    assert "zone_id: A" in capsys.readouterr().out

    manifests = {
        "synth": data / "synth_manifest.json",
        "train": model.parent / "A.train_manifest.json",
        "predict": root / "pred_A" / "predict_manifest.json",
        "evaluate": root / "reports" / "A.evaluate_manifest.json",
        "transfer": root / "pred_B" / "transfer_manifest.json",
    }
    for command, path in manifests.items():
        info = load(path)
        assert info["command"] == command
        assert info["status"] == "ok" and info["error"] is None
        assert "func" not in info["config"]
    assert load(manifests["predict"])["tiles_failed"] == 0
    assert load(manifests["transfer"])["transfer"]["mode"] == "far_range"
    assert "thresholds" in load(root / "reports" / "A.json")

    assert load(registry) == {
        "A": {"model_path": str(model), "mode": "close_range",
              "source_zone_id": "A"},
    }


def test_transfer_does_not_register_the_target(trained, tmp_path):
    """A transfer to B leaves B without a model: B <- B is a registry error,
    not a run of A's model recorded as close range."""
    root, data, model, registry = trained
    assert run("transfer", "--zone", "B", "--source-zone", "A", "--data",
               data, "--registry", registry, "--out", tmp_path / "BA") == 0
    info = load(tmp_path / "BA" / "transfer_manifest.json")
    assert set(info["inputs"]) == {str(data / "B" / "composite.ghsr"),
                                   str(model)}
    assert run("transfer", "--zone", "B", "--source-zone", "B", "--data",
               data, "--registry", registry, "--out", tmp_path / "BB") == 9
    info = load(tmp_path / "BB" / "transfer_manifest.json")
    assert info["error"]["class"] == "registry"
    assert set(load(registry)) == {"A"}


def test_failures_exit_with_typed_codes(trained, tmp_path):
    _, data, model, _ = trained
    failed = tmp_path / "pred_missing"
    assert run("predict", "--zone", "Q", "--data", data, "--model", model,
               "--out", failed) == 3
    info = load(failed / "predict_manifest.json")
    assert info["status"] == "error"
    assert info["error"]["class"] == "missing_input"

    # evaluating a failed prediction is a format error, not a crash
    assert run("evaluate", "--probs", failed, "--reference", data / "A",
               "--report", tmp_path / "r.json") == 4
    assert load(tmp_path / "r.evaluate_manifest.json")["error"]["class"] == \
        "format"

    corrupt = tmp_path / "corrupt.ghsm"
    corrupt.write_bytes(b"XXXX" + model.read_bytes()[4:])
    assert run("predict", "--zone", "A", "--data", data, "--model", corrupt,
               "--out", tmp_path / "pred_corrupt") == 4
    assert run("inspect", corrupt) == 4
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("error_class, code", [
    (errors.ToolkitError, 1),
    (errors.MissingInputError, 3),
    (errors.FormatError, 4),
    (errors.ConfigError, 5),
    (errors.ParameterError, 5),
    (errors.ShapeError, 6),
    (errors.NumericError, 7),
    (errors.DegenerateBatchError, 8),
    (errors.DegenerateClassError, 8),
    (errors.RegistryError, 9),
    (errors.StatsError, 10),
    (errors.UndefinedStatisticError, 10),
    (errors.MetricError, 10),
    (errors.GenerationError, 11),
])
def test_exit_code_of_each_error_class(monkeypatch, error_class, code):
    def fail(args, argv):
        raise error_class("boom")

    monkeypatch.setattr(cli, "cmd_inspect", fail)
    assert error_class.exit_code == code
    assert run("inspect", "anything") == code


def test_unexpected_error_exits_one(monkeypatch):
    def fail(args, argv):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_inspect", fail)
    assert run("inspect", "anything") == 1
