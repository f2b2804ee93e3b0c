"""Command-line interface: full pipeline exit codes and output files."""

import csv
import json

import numpy as np
import pytest

from relattn.checkpoint import save_checkpoint
from relattn.cli import main


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One gen-data + train chain shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    spec = {
        "num_scenes": 8, "C": 3, "P": 2, "entities_min": 3, "entities_max": 4,
        "zipf_exponent": 1.0, "seed": 5, "test_scenes": 3,
    }
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec))
    config = {
        "C": 3, "P": 2, "K": 2, "d": 16, "L_d": 1, "h_G": 2, "d_G": 8,
        "h_R": 2, "d_R": 8, "h_A": 4, "d_A": 8, "points_min": 1,
        "points_max": 4, "iterations": 10, "learning_rate": 1e-4, "seed": 7,
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    data_dir = root / "data"
    run_dir = root / "run"
    assert main(["gen-data", "--spec", str(spec_path),
                 "--out", str(data_dir)]) == 0
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(run_dir)]) == 0
    return root, cfg_path, data_dir, run_dir


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        _, _, data_dir, run_dir = pipeline
        assert (data_dir / "train.json").exists()
        assert (data_dir / "test.json").exists()
        assert (run_dir / "model.ckpt").exists()
        assert (run_dir / "train_log.csv").exists()

    def test_eval_writes_metrics(self, pipeline, capsys):
        root, _, data_dir, run_dir = pipeline
        out = root / "metrics.csv"
        code = main(["eval", "--checkpoint", str(run_dir / "model.ckpt"),
                     "--data", str(data_dir), "--split", "test",
                     "--k", "10", "20", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "recall@10" in captured
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["split", "task", "metric", "k", "predicate",
                           "value"]
        metrics = {(r[2], r[3]) for r in rows[1:]}
        assert ("recall", "10") in metrics
        assert ("mean_recall", "20") in metrics

    def test_trace_pgla_writes_trace(self, pipeline):
        root, cfg_path, data_dir, _ = pipeline
        out = root / "traced"
        code = main(["train", "--trace-pgla", "--config", str(cfg_path),
                     "--data", str(data_dir), "--out", str(out)])
        assert code == 0
        lines = (out / "pgla_trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,predicate,r,W,B"
        assert len(lines) == 1 + 10 * 2

    def test_sample_points_csv(self, pipeline):
        root, _, data_dir, run_dir = pipeline
        out = root / "points.csv"
        code = main(["sample-points", "--checkpoint",
                     str(run_dir / "model.ckpt"), "--data", str(data_dir),
                     "--split", "test", "--scene", "0", "--out", str(out)])
        assert code == 0
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["entity", "group", "layer", "role", "x", "y", "z"]
        assert len(rows) > 1
        roles = {r[3] for r in rows[1:]}
        assert roles == {"subject", "object"}
        for r in rows[1:]:
            for coord in r[4:]:
                assert 0.0 <= float(coord) <= 1.0


class TestExitCodes:
    def test_missing_required_argument(self, capsys):
        assert main(["train", "--config", "x.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_config_json(self, pipeline, tmp_path, capsys):
        _, _, data_dir, _ = pipeline
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"C": 3, "P": 2, "unknown_knob": 1}))
        code = main(["train", "--config", str(bad), "--data", str(data_dir),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_spec_values(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"num_scenes": 0, "C": 3, "P": 2}))
        assert main(["gen-data", "--spec", str(bad),
                     "--out", str(tmp_path / "d")]) == 1

    @pytest.mark.parametrize("key, value", [
        ("num_scenes", "5"), ("num_scenes", 5.5), ("zipf_exponent", "1"),
        ("seed", True), ("seed", -1), ("test_scenes", -3), ("image_size", [8, 8]),
        ("image_size", [64, 64.0]), ("entities_per_scene", [2.5, 4]),
        ("entities_per_scene", [2]), ("triplet_rules", {"bucket": 2}),
        ("triplet_rules", 2)])
    def test_bad_spec_names_its_key(self, tmp_path, capsys, key, value):
        """A generator spec value of the wrong type or out of range, or an
        unknown key inside an object, is a usage error naming its key, on
        one line, before any output is made."""
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"num_scenes": 5, "C": 3, "P": 2, key: value}))
        assert main(["gen-data", "--spec", str(bad), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and key in err
        assert not (tmp_path / "d").exists()

    def test_corrupt_checkpoint_is_runtime_failure(self, pipeline, tmp_path,
                                                   capsys):
        _, _, data_dir, _ = pipeline
        fake = tmp_path / "model.ckpt"
        fake.write_bytes(b"not a checkpoint at all")
        code = main(["eval", "--checkpoint", str(fake), "--data",
                     str(data_dir), "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_missing_dataset_dir(self, pipeline, tmp_path, capsys):
        _, cfg_path, _, _ = pipeline
        code = main(["train", "--config", str(cfg_path),
                     "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "gen-data"])
    def test_missing_input_json(self, pipeline, tmp_path, capsys, command):
        """An absent config or generator spec is a bad input (exit 1),
        not a runtime failure, and leaves no output directory behind."""
        _, _, data_dir, _ = pipeline
        absent = str(tmp_path / "absent.json")
        args = {"train": ["train", "--config", absent, "--data", str(data_dir)],
                "gen-data": ["gen-data", "--spec", absent]}[command]
        assert main(args + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k", ["0", "-5"])
    def test_eval_rejects_nonpositive_k(self, pipeline, tmp_path, capsys, k):
        """A K below 1 is refused before the checkpoint is read: the
        checkpoint path here does not exist, which would be a runtime
        failure (exit 2) if it were loaded first."""
        _, _, data_dir, _ = pipeline
        code = main(["eval", "--checkpoint", str(tmp_path / "absent.ckpt"),
                     "--data", str(data_dir), "--k", "20", k,
                     "--out", str(tmp_path / "m.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "m.csv").exists()

    def test_eval_rejects_repeated_k(self, pipeline, tmp_path, capsys):
        """`--k 20 20` would write every K=20 row twice. It is refused
        before the checkpoint is read: the checkpoint path here does not
        exist, which would be a runtime failure (exit 2) if it were loaded
        first."""
        _, _, data_dir, _ = pipeline
        code = main(["eval", "--checkpoint", str(tmp_path / "absent.ckpt"),
                     "--data", str(data_dir), "--k", "20", "20",
                     "--out", str(tmp_path / "m.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "once" in err[0]
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("command", ["eval", "sample-points"])
    @pytest.mark.parametrize("split", [["test"], "val"], ids=["list", "unknown"])
    def test_rejects_unknown_dataset_split(self, pipeline, tmp_path, capsys, command, split):
        """A test split whose meta names a split other than train or test
        is an input error on one line naming the key, before any output;
        a list used to end in an unhashable-type traceback."""
        _, _, data_dir, run_dir = pipeline
        bad_dir = tmp_path / "data"
        bad_dir.mkdir()
        raw = json.loads((data_dir / "test.json").read_text())
        raw["meta"]["split"] = split
        (bad_dir / "test.json").write_text(json.dumps(raw))
        out = tmp_path / "out.csv"
        code = main([command, "--checkpoint", str(run_dir / "model.ckpt"),
                     "--data", str(bad_dir), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'split'" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "sample-points"])
    @pytest.mark.parametrize("split, other", [("test", "train"), ("train", "test")])
    def test_rejects_file_of_the_other_split(self, pipeline, tmp_path, capsys, command,
                                             split, other):
        """`--split` names the file, and the file's meta must name the same
        split: a mismatch is an input error on one line naming both, before
        any scene is evaluated. It used to run on, labelling the rows with
        the meta's split and drawing features from that split's stream."""
        _, _, data_dir, run_dir = pipeline
        bad_dir = tmp_path / "data"
        bad_dir.mkdir()
        raw = json.loads((data_dir / f"{split}.json").read_text())
        raw["meta"]["split"] = other
        (bad_dir / f"{split}.json").write_text(json.dumps(raw))
        out = tmp_path / "out.csv"
        code = main([command, "--checkpoint", str(run_dir / "model.ckpt"),
                     "--data", str(bad_dir), "--split", split, "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert repr(split) in err[0] and repr(other) in err[0]
        assert captured.out == "" and not out.exists()

    def test_dataset_meta_without_classes(self, pipeline, tmp_path, capsys):
        _, cfg_path, data_dir, _ = pipeline
        bad_dir = tmp_path / "data"
        bad_dir.mkdir()
        for split in ("train", "test"):
            raw = json.loads((data_dir / f"{split}.json").read_text())
            del raw["meta"]["C"]
            (bad_dir / f"{split}.json").write_text(json.dumps(raw))
        code = main(["train", "--config", str(cfg_path), "--data", str(bad_dir),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("key, value", [("seen_triples", [1]), ("scenes", 5)])
    def test_malformed_dataset_field(self, pipeline, tmp_path, capsys, key, value):
        _, cfg_path, data_dir, _ = pipeline
        bad_dir = tmp_path / "data"
        bad_dir.mkdir()
        for split in ("train", "test"):
            raw = json.loads((data_dir / f"{split}.json").read_text())
            raw[key] = value
            (bad_dir / f"{split}.json").write_text(json.dumps(raw))
        code = main(["train", "--config", str(cfg_path), "--data", str(bad_dir),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("field, value", [
        ("class", 1.9), ("scale", True), ("triplets", [0.0, "1", 1]),
        ("box", [0, 0, True, True])])
    def test_eval_rejects_coerced_scene_field(self, pipeline, tmp_path, capsys, field, value):
        """A test split whose scene holds a non-integer class, scale or
        triplet, or a box of booleans, fails eval with one error line,
        before any metric is written."""
        _, _, data_dir, run_dir = pipeline
        bad_dir = tmp_path / "data"
        bad_dir.mkdir()
        raw = json.loads((data_dir / "test.json").read_text())
        scene = next(s for s in raw["scenes"] if s["triplets"])
        if field == "triplets":
            scene["triplets"][0] = value
        else:
            scene["entities"][0][field] = value
        (bad_dir / "test.json").write_text(json.dumps(raw))
        code = main(["eval", "--checkpoint", str(run_dir / "model.ckpt"),
                     "--data", str(bad_dir), "--out", str(tmp_path / "m.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and repr(field) in err[0]
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("d", "x"), ("lambda", "1"), ("loss_weights", 3), ("K", 2.5),
        ("pgla", "yes"), ("iterations", True)])
    def test_mistyped_config_value(self, pipeline, tmp_path, capsys, key, value):
        """A config value of the wrong type is a usage error naming its key,
        on one line, before any output is made."""
        _, cfg_path, data_dir, _ = pipeline
        config = dict(json.loads(cfg_path.read_text()), **{key: value})
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps(config))
        code = main(["train", "--config", str(bad), "--data", str(data_dir),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and repr(key) in err
        assert not (tmp_path / "out").exists()

    def test_config_that_is_a_list(self, pipeline, tmp_path, capsys):
        _, _, data_dir, _ = pipeline
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps([{"C": 3, "P": 2}]))
        code = main(["train", "--config", str(bad), "--data", str(data_dir),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_spec_that_is_a_list(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps([4, 3, 2]))
        assert main(["gen-data", "--spec", str(bad),
                     "--out", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_scene_index_out_of_range(self, pipeline, tmp_path, capsys):
        _, _, data_dir, run_dir = pipeline
        code = main(["sample-points", "--checkpoint",
                     str(run_dir / "model.ckpt"), "--data", str(data_dir),
                     "--scene", "99", "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "sample-points"])
    def test_unwritable_out(self, pipeline, tmp_path, capsys, command):
        """An --out in a missing directory, or one that is a directory, is
        refused before the checkpoint is read: the checkpoint path here
        does not exist, which would be a runtime failure (exit 2) if it
        were loaded first."""
        _, _, data_dir, _ = pipeline
        for out in (tmp_path / "missing" / "out.csv", tmp_path):
            code = main([command, "--checkpoint", str(tmp_path / "absent.ckpt"),
                         "--data", str(data_dir), "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "--out" in err

    def test_config_less_checkpoint(self, pipeline, tmp_path, capsys):
        _, _, data_dir, _ = pipeline
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, {"a": np.zeros(2)})
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir),
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure:") and err.count("\n") == 1
        assert "no run configuration" in err

    @pytest.mark.parametrize("command", ["eval", "sample-points"])
    @pytest.mark.parametrize("case", ["invalid-config", "wrong-parameters",
                                      "mistyped-config"])
    def test_unusable_checkpoint(self, pipeline, tmp_path, capsys, command, case):
        """A checkpoint that records an invalid or mistyped configuration,
        or holds parameters that do not fit its model, is a malformed
        checkpoint (exit 2), reported on one short line."""
        _, cfg_path, data_dir, _ = pipeline
        config = json.loads(cfg_path.read_text())
        if case == "invalid-config":
            config["d"] = 30
        elif case == "mistyped-config":
            config["pgla"] = "yes"
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, {"a": np.zeros(2)}, {"config": config})
        code = main([command, "--checkpoint", str(ckpt), "--data", str(data_dir),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure:") and err.count("\n") == 1
        assert len(err) < 300
        assert {"invalid-config": "d must be divisible by 4",
                "wrong-parameters": "1 unexpected ['a']",
                "mistyped-config": "'pgla' must be true or false"}[case] in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command, field, value", [
        ("eval", "C", 8), ("sample-points", "C", 8), ("eval", "P", 5)])
    def test_dataset_config_mismatch(self, pipeline, tmp_path, capsys, command,
                                     field, value):
        """A split whose class or predicate count differs from the
        checkpoint's config is a usage error, found before evaluation."""
        root, _, _, run_dir = pipeline
        spec = json.loads((root / "spec.json").read_text())
        spec[field] = value
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert main(["gen-data", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "data")]) == 0
        capsys.readouterr()
        out = tmp_path / "out.csv"
        code = main([command, "--checkpoint", str(run_dir / "model.ckpt"),
                     "--data", str(tmp_path / "data"), "--out", str(out)])
        assert code == 1
        trained = {"C": 3, "P": 2}[field]
        assert capsys.readouterr().err == \
            f"error: config {field}={trained} but dataset has {field}={value}\n"
        assert not out.exists()
