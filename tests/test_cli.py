import copy
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

from posecast import autodiff as ad
from posecast import cli, gradcheck
from posecast.data import (PoseSequence, load_sequences, make_windows, save_sequences,
                           skeleton_preset, synth_kinematic)
from posecast.model import (ForecastModel, ModelConfig, build_model, load_checkpoint,
                            save_checkpoint)
from posecast.training import EVAL_CHUNKS, TrainConfig, check_horizons, evaluate

from conftest import child_env, read_operator


@pytest.fixture
def dataset(tmp_path):
    seqs = [synth_kinematic(4, frames=30, period=6, seed=s) for s in range(2)]
    path = tmp_path / "poses.mgps"
    save_sequences(path, seqs)
    return path


@pytest.fixture
def run_config(tmp_path, dataset):
    config = {
        "seed": 3,
        "dataset": str(dataset),
        "output_dir": str(tmp_path / "run"),
        "skeleton": "chain_4",
        "model": {
            "input_frames": 4,
            "output_frames": 3,
            "span": 1,
            "max_hop": 1,
            "strategy": "pseudo_autoregressive",
            "refine": True,
            "value_schedule": [3, 8, 3],
            "qk_schedule": [3, 4, 3],
        },
        "train": {
            "epochs": 3,
            "batch_size": 16,
            "lr_initial": 0.01,
            "lr_decay_epochs": [2],
            "lr_decay_factor": 0.1,
        },
        "horizons": [1, 3],
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(config))
    return path, config


def read_log(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestTrainCommand:
    def test_writes_all_artifacts(self, run_config, tmp_path):
        path, config = run_config
        assert cli.main(["train", str(path)]) == 0
        out = tmp_path / "run"
        assert (out / "checkpoint.pckp").exists()
        assert (out / "train_log.jsonl").exists()
        assert (out / "eval_report.txt").exists()
        log = read_log(out / "train_log.jsonl")
        assert len(log) == 3
        assert log[2]["lr"] == pytest.approx(0.001)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow it reports
    def test_non_finite_loss_exits_3(self, run_config, tmp_path, capsys):
        path, config = run_config
        seq = synth_kinematic(4, frames=30, period=6, seed=0)
        seq.frames *= 1e200
        huge = tmp_path / "huge.mgps"
        save_sequences(huge, [seq])
        path.write_text(yaml.safe_dump({**config, "dataset": str(huge)}))
        assert cli.main(["train", str(path)]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: non-finite loss at epoch 0, batch 0;")

    def test_missing_dataset_exits_2(self, run_config, tmp_path):
        path, config = run_config
        config["dataset"] = str(tmp_path / "nope.mgps")
        path.write_text(yaml.safe_dump(config))
        assert cli.main(["train", str(path)]) == 2

    def test_missing_field_exits_2(self, run_config):
        path, config = run_config
        del config["model"]["input_frames"]
        path.write_text(yaml.safe_dump(config))
        assert cli.main(["train", str(path)]) == 2

    def test_rerun_reproduces_loss_column(self, run_config, tmp_path):
        path, config = run_config
        assert cli.main(["train", str(path)]) == 0
        first = read_log(tmp_path / "run" / "train_log.jsonl")
        first_ckpt = (tmp_path / "run" / "checkpoint.pckp").read_bytes()
        assert cli.main(["train", str(path)]) == 0
        second = read_log(tmp_path / "run" / "train_log.jsonl")
        second_ckpt = (tmp_path / "run" / "checkpoint.pckp").read_bytes()
        assert [r["mean_loss"] for r in first] == [r["mean_loss"] for r in second]
        assert first_ckpt == second_ckpt


class TestEvalCommand:
    def test_prints_horizon_table(self, run_config, tmp_path, capsys, dataset):
        path, config = run_config
        cli.main(["train", str(path)])
        ckpt = tmp_path / "run" / "checkpoint.pckp"
        out_json = tmp_path / "report.json"
        code = cli.main([
            "eval", str(ckpt), str(dataset),
            "--horizons", "1,2,3", "--baseline", "--out", str(out_json),
        ])
        assert code == 0
        table = capsys.readouterr().out
        assert "model" in table and "baseline" in table
        payload = json.loads(out_json.read_text())
        assert set(payload["horizons"]) == {"1", "2", "3"} or set(
            int(k) for k in payload["horizons"]
        ) == {1, 2, 3}

    def test_matches_library_evaluate(self, run_config, tmp_path, dataset):
        from posecast.data import load_sequences, make_windows
        from posecast.training import evaluate

        path, config = run_config
        cli.main(["train", str(path)])
        ckpt = tmp_path / "run" / "checkpoint.pckp"
        out_json = tmp_path / "report.json"
        cli.main(["eval", str(ckpt), str(dataset), "--horizons", "1,3",
                  "--out", str(out_json)])
        payload = json.loads(out_json.read_text())

        model = load_checkpoint(ckpt)
        windows = make_windows(load_sequences(dataset), 4, 3)
        report = evaluate(model, windows, [1, 3])
        for h in (1, 3):
            assert payload["horizons"][str(h)] == report.horizons[h]

    def test_horizon_beyond_k_exits_2(self, run_config, tmp_path, dataset):
        path, config = run_config
        cli.main(["train", str(path)])
        ckpt = tmp_path / "run" / "checkpoint.pckp"
        assert cli.main(["eval", str(ckpt), str(dataset), "--horizons", "9"]) == 2

    def test_default_horizon_is_k(self, run_config, tmp_path, dataset, capsys):
        path, config = run_config
        cli.main(["train", str(path)])
        ckpt = tmp_path / "run" / "checkpoint.pckp"
        capsys.readouterr()
        assert cli.main(["eval", str(ckpt), str(dataset)]) == 0
        assert capsys.readouterr().out.splitlines()[0].split() == ["horizon", "3"]


def test_predict_command(run_config, tmp_path, dataset):
    path, config = run_config
    cli.main(["train", str(path)])
    ckpt = tmp_path / "run" / "checkpoint.pckp"
    out = tmp_path / "pred.mgps"
    assert cli.main(["predict", str(ckpt), str(dataset), str(out)]) == 0
    from posecast.data import load_sequences

    preds = load_sequences(out)
    assert len(preds) == 2
    assert preds[0].frames.shape == (3, 4, 3)


def test_predict_names_skipped_records(bad_inputs, tmp_path, capsys):
    # The checkpoint forecasts from T=4 frames; "jump" has 3.
    dataset = tmp_path / "short.mgps"
    save_sequences(dataset, [synth_kinematic(4, frames=30, period=6, label="walk"),
                             synth_kinematic(4, frames=3, period=6, label="jump")])
    out = tmp_path / "pred.mgps"
    assert cli.main(["predict", bad_inputs["model.pckp"], str(dataset), str(out)]) == 0
    assert capsys.readouterr().out == (
        f"wrote 1 predicted sequences to {out}; skipped 1 shorter than T=4: 'jump'\n")
    assert [seq.label for seq in load_sequences(out)] == ["walk"]


def test_predict_forecasts_every_record_in_one_call(bad_inputs, tmp_path, monkeypatch):
    # More records than two chunks hold, with every weight perturbed so that
    # the refinement is not the identity: the file holds the bytes that one
    # predict call per record gives.
    model = load_checkpoint(bad_inputs["model.pckp"])
    rng = np.random.default_rng(21)
    for p in model.parameters():
        p.values += rng.normal(scale=0.1, size=p.shape)
    ckpt = tmp_path / "perturbed.pckp"
    save_checkpoint(ckpt, model)
    n = ad.chunk_size(model.window_rows)
    seqs = [synth_kinematic(4, frames=4 + i % 5, period=6, seed=i, label=f"r{i}")
            for i in range(2 * n + 5)]
    save_sequences(tmp_path / "many.mgps", seqs)
    calls = []
    predict = ForecastModel.predict
    monkeypatch.setattr(ForecastModel, "predict",
                        lambda self, x: calls.append(len(x)) or predict(self, x))
    out = tmp_path / "pred.mgps"
    assert cli.main(["predict", str(ckpt), str(tmp_path / "many.mgps"), str(out)]) == 0
    assert calls == [len(seqs)] and len(seqs) > 2 * n
    save_sequences(tmp_path / "loop.mgps", [
        PoseSequence(frames=model.predict(seq.frames[-4:][None])[0], rate=seq.rate,
                     label=seq.label) for seq in seqs])
    assert out.read_bytes() == (tmp_path / "loop.mgps").read_bytes()


def test_sweep_command(run_config, tmp_path, capsys):
    path, config = run_config
    config["train"]["epochs"] = 1
    config["train"]["lr_decay_epochs"] = []
    path.write_text(yaml.safe_dump(config))
    code = cli.main(["sweep", str(path), "--spans", "0,1", "--hops", "0,1",
                     "--horizon", "1"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l and l[0].isdigit()]
    assert len(lines) == 4
    for span in (0, 1):
        for hop in (0, 1):
            assert (tmp_path / "run" / f"L{span}D{hop}" / "checkpoint.pckp").exists()


def test_sweep_scores_horizon_k_by_default(run_config, tmp_path, capsys):
    # K = 3 here: a default of frame 10 would lie outside every cell's range.
    path, config = run_config
    config["train"]["epochs"] = 1
    config["train"]["lr_decay_epochs"] = []
    path.write_text(yaml.safe_dump(config))
    assert cli.main(["sweep", str(path), "--spans", "0,1", "--hops", "0"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[rows.index("L  D  error@3") + 1].startswith("0  0  ")


def test_sweep_predicts_each_window_once_per_cell(run_config, tmp_path, dataset, capsys,
                                                  monkeypatch):
    path, config = run_config
    config["train"]["epochs"] = 1
    config["train"]["lr_decay_epochs"] = []
    path.write_text(yaml.safe_dump(config))
    # Two sequences of n + 14 frames give 2n + 16 windows: three chunks, in
    # one evaluate block, per cell.
    n = ad.chunk_size(build_model(skeleton_preset("chain_4"),
                                  ModelConfig(**config["model"])).window_rows)
    save_sequences(dataset, [synth_kinematic(4, frames=n + 14, period=6, seed=s)
                             for s in range(2)])
    predicted = []
    predict = ForecastModel.predict
    monkeypatch.setattr(ForecastModel, "predict",
                        lambda self, x: predicted.append(len(x)) or predict(self, x))
    assert cli.main(["sweep", str(path), "--spans", "0,1", "--hops", "0",
                     "--horizon", "2"]) == 0
    windows = make_windows(load_sequences(dataset), 4, 3)
    assert sum(predicted) == 2 * len(windows)
    assert len(predicted) == 2 == 2 * -(-len(windows) // (EVAL_CHUNKS * n))
    rows = capsys.readouterr().out.splitlines()
    cell = tmp_path / "run" / "L1D0"
    # The report holds the config's horizons only; the printed error is
    # the one an eval of the written checkpoint gives.
    assert (cell / "eval_report.txt").read_text().splitlines()[0].split() == ["horizon", "1", "3"]
    error = evaluate(load_checkpoint(cell / "checkpoint.pckp"), windows, [2]).horizons[2]
    assert rows == ["L  D  error@2", rows[1], f"1  0  {error:.4f}"]


@pytest.fixture
def bad_inputs(run_config, tmp_path):
    """Malformed files next to a valid untrained checkpoint for the fixture config."""
    path, config = run_config
    ckpt = tmp_path / "model.pckp"
    model_config = ModelConfig(**config["model"])
    save_checkpoint(ckpt, build_model(skeleton_preset("chain_4"), model_config))
    blob = ckpt.read_bytes()
    (tmp_path / "truncated.pckp").write_bytes(blob[:-9])
    (tmp_path / "padded.pckp").write_bytes(blob + b"junk")
    bad_span = bytearray(blob)
    bad_span[17] = 0xFF                 # bytes 17-20 hold the span L
    (tmp_path / "span.pckp").write_bytes(bad_span)
    (tmp_path / "bad.mgps").write_bytes(b"XXXX" + bytes(40))
    save_sequences(tmp_path / "wide.mgps", [synth_kinematic(5, frames=30, period=6)])
    (tmp_path / "syntax.yaml").write_text("seed: 3\nmodel: {input_frames: 4\n")

    def train_with(section, **fields):
        cfg = copy.deepcopy(config)
        (cfg[section] if section else cfg).update(fields)
        path.write_text(yaml.safe_dump(cfg))
        return ["train", str(path)]

    inputs = {name: str(tmp_path / name)
              for name in ("model.pckp", "truncated.pckp", "padded.pckp", "span.pckp",
                           "bad.mgps", "wide.mgps", "nope.mgps", "syntax.yaml")}
    inputs["poses.mgps"] = config["dataset"]
    inputs["dump"] = str(tmp_path / "dump")
    inputs["train_with"] = train_with
    return inputs


def _eval(ckpt, dataset, horizons="1,3"):
    return lambda f: ["eval", f[ckpt], f[dataset], "--horizons", horizons]


def _predict(dataset):
    return lambda f: ["predict", f["model.pckp"], f[dataset], f["nope.mgps"]]


def _train(section=None, **fields):
    return lambda f: f["train_with"](section, **fields)


def _sweep(spans, hops, horizon):
    return lambda f: ["sweep", f["train_with"](None)[1], "--spans", spans, "--hops", hops,
                      "--horizon", horizon]


# name -> (argv builder, fragment the one stderr line must contain)
MALFORMED = {
    "eval_bad_magic": (_eval("model.pckp", "bad.mgps"), "bad magic"),
    "predict_bad_magic": (_predict("bad.mgps"), "bad magic"),
    "train_bad_magic": (lambda f: f["train_with"](None, dataset=f["bad.mgps"]), "bad magic"),
    "eval_missing_dataset": (_eval("model.pckp", "nope.mgps"), "nope.mgps"),
    "predict_joint_mismatch": (_predict("wide.mgps"), "V=4"),
    "predict_joint_mismatch_names_dataset": (_predict("wide.mgps"),
                                             "wide.mgps, record 'synthetic'"),
    "train_joint_mismatch": (lambda f: f["train_with"](None, dataset=f["wide.mgps"]),
                             "joint count 5 does not match skeleton (4)"),
    "eval_joint_mismatch": (_eval("model.pckp", "wide.mgps"),
                            "joint count 5 does not match skeleton (4)"),
    "eval_horizons_not_int": (_eval("model.pckp", "poses.mgps", "a"), "--horizons"),
    "train_horizon_beyond_k": (_train(horizons=[1, 9]), "horizon 9"),
    "train_empty_horizons": (_train(horizons=[]), "horizons is empty"),
    "train_yaml_syntax_error": (lambda f: ["train", f["syntax.yaml"]],
                                "while parsing a flow mapping"),
    "train_unknown_skeleton": (_train(skeleton="octopus"), "octopus"),
    "train_unknown_model_key": (_train("model", max_hops=2), "max_hops"),
    "train_refine_string": (_train("model", refine="false"), "refine"),
    "train_batch_size_0": (_train("train", batch_size=0), "batch_size"),
    "train_negative_seed": (_train(seed=-1), "seed must be >= 0"),
    "train_bad_value_schedule": (_train("model", value_schedule=[4, 3]), "(4, 3)"),
    "train_zero_width": (_train("model", value_schedule=[3, 0, 3]), "value_schedule"),
    "train_max_hop_past_joints": (_train("model", max_hop=50_000_000), "max_hop"),
    "train_windows_not_mapping": (_train(windows=[2]), "windows must be a mapping"),
    "train_windows_stride_not_int": (_train(windows={"stride": "two"}), "windows.stride"),
    "train_windows_stride_0": (_train(windows={"stride": 0}), "windows.stride"),
    "train_output_dir_not_string": (_train(output_dir=[1, 2]), "output_dir"),
    "train_skeleton_not_string": (_train(skeleton=5), "skeleton must be a string"),
    "train_dataset_not_string": (_train(dataset=["poses.mgps"]), "dataset must be a string"),
    "train_unknown_top_level_key": (_train(horizon=[99]), "unknown key 'horizon'"),
    "train_unknown_windows_key": (_train(windows={"stide": 2}), "unknown key 'stide'"),
    "train_negative_clip_norm": (_train("train", clip_norm=-1), "clip_norm must be > 0"),
    "train_zero_lr_initial": (_train("train", lr_initial=0), "lr_initial must be > 0"),
    "train_windows_stride_fraction": (_train(windows={"stride": 1.5}), "windows.stride"),
    "train_horizon_fraction": (_train(horizons=[2.9]), "horizons[0] must be an integer"),
    "train_epochs_fraction": (_train("train", epochs=2.7), "epochs must be an integer"),
    "train_batch_size_bool": (_train("train", batch_size=True), "batch_size must be an integer"),
    "train_span_fraction": (_train("model", span=1.9), "span must be an integer"),
    "train_seed_past_header": (_train(seed=2**64), "seed does not fit the checkpoint header"),
    "train_negative_epochs": (_train("train", epochs=-3), "epochs must be >= 0"),
    "sweep_horizon_beyond_k": (_sweep("0,1", "0,1", "99"), "horizon 99"),
    "sweep_later_cell_bad_span": (_sweep("0,9", "0", "1"), "span must be in"),
    "sweep_later_cell_bad_hop": (_sweep("0", "0,9", "1"), "max_hop must be <= V - 1"),
    "train_output_dir_under_file": (
        lambda f: f["train_with"](None, output_dir=str(Path(f["poses.mgps"]) / "run")),
        "Not a directory"),
    "sweep_output_dir_under_file": (
        lambda f: ["sweep", f["train_with"](None, output_dir=str(Path(f["poses.mgps"]) / "run"))[1],
                   "--spans", "0,1", "--hops", "0", "--horizon", "1"], "Not a directory"),
    "graph_dump_max_hop_past_joints": (
        lambda f: ["graph-dump", "h36m22", "--frames", "2", "--span", "1",
                   "--max-hop", "50000000", "--out", f["dump"]], "max_hop"),
    "eval_truncated_checkpoint": (_eval("truncated.pckp", "poses.mgps"),
                                  "truncated checkpoint at byte"),
    "eval_checkpoint_trailing_bytes": (_eval("padded.pckp", "poses.mgps"),
                                       "4 trailing bytes"),
    "eval_checkpoint_bad_span": (_eval("span.pckp", "poses.mgps"),
                                 "checkpoint header (bytes 0–"),
}


@pytest.mark.parametrize("argv, fragment", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exits_2_with_one_line(argv, fragment, bad_inputs, capsys, monkeypatch,
                                               tmp_path):
    monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("trained on malformed input"))
    assert cli.main(argv(bad_inputs)) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert fragment in err
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.glob("**/L*D*")), "a sweep cell wrote its run directory"


def test_readme_run_config_builds(tmp_path):
    # The documented example must pass the CLI's checks and build, so a
    # schema change that breaks it fails here. Nothing is trained.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    path = tmp_path / "run.yaml"
    path.write_text(re.search(r"```yaml\n(.*?)```", readme, re.S).group(1))
    config = cli.load_config(path)
    model_config = cli._section(ModelConfig, config, "model")
    train_config = cli._section(TrainConfig, config, "train")
    assert (model_config.seed, train_config.seed) == (config["seed"], config["seed"])
    check_horizons(config["horizons"], model_config.output_frames)
    build_model(skeleton_preset(config["skeleton"]), model_config)


class TestGradcheckCommand:
    def test_fresh_build_passes(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        for name, _ in gradcheck.OP_CHECKS:
            assert out.count(name) == 1

    def test_corrupted_backward_fails_naming_op(self, capsys, monkeypatch):
        broken = [(n, f) if n != "matmul" else (n, lambda: 1.0)
                  for n, f in gradcheck.OP_CHECKS]
        monkeypatch.setattr(gradcheck, "OP_CHECKS", broken)
        assert cli.main(["gradcheck"]) == 1
        captured = capsys.readouterr()
        assert "matmul" in captured.err


def test_graph_dump_round_trip(tmp_path):
    out = tmp_path / "ops"
    code = cli.main([
        "graph-dump", "chain_13", "--frames", "5", "--span", "1",
        "--max-hop", "1", "--out", str(out),
    ])
    assert code == 0
    from posecast.graphs import build_hop_partition, build_multigraph
    from posecast.data import skeleton_preset
    from test_graphs import kron_operators, raw_operators

    mg = build_multigraph(build_hop_partition(skeleton_preset("chain_13"), 1), 5, 1)
    for k in (0, 1):
        pre, header = read_operator(out / f"operator_k{k}_pre.txt")
        assert np.array_equal(pre, raw_operators(mg)[k])
        post, _ = read_operator(out / f"operator_k{k}_post.txt")
        assert np.array_equal(post, kron_operators(mg)[k])
    # Fig-style support check: blocks beyond one frame apart are zero
    v = 13
    pre, _ = read_operator(out / "operator_k1_pre.txt")
    assert np.array_equal(pre[:v, 2 * v:3 * v], np.zeros((v, v)))


def test_graph_dump_unknown_skeleton(tmp_path):
    code = cli.main(["graph-dump", "octopus", "--frames", "2", "--span", "1",
                     "--max-hop", "1", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("skeleton, frames, v", [("chain_4", "40000", 4), ("h36m22", "3000", 22)])
def test_graph_dump_unallocatable_size_names_it(skeleton, frames, v, tmp_path):
    # chain_4's 40,000-frame band takes 11.9 GiB; h36m22's 3,000-frame band
    # fits, its first dense (VT)^2 operator (32.5 GiB) does not. Run in a
    # child whose address space is capped at 2 GiB, so an allocation fails
    # there rather than exhausting the machine. Nothing is left behind.
    child = textwrap.dedent(f"""
        import resource, sys
        from posecast.cli import main
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        sys.exit(main(["graph-dump", {skeleton!r}, "--frames", {frames!r}, "--span", "1",
                       "--max-hop", "1", "--out", {str(tmp_path / "ops")!r}]))
    """)
    run = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         timeout=60, env=child_env())
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("configuration error: cannot allocate")
    assert f"V={v}, --frames {frames}, --max-hop 1" in run.stderr
    assert len(run.stderr.splitlines()) == 1
    assert not (tmp_path / "ops").exists()


def test_single_frame_dump(tmp_path):
    out = tmp_path / "ops"
    assert cli.main(["graph-dump", "chain_3", "--frames", "1", "--span", "1",
                     "--max-hop", "1", "--out", str(out)]) == 0
    pre, header = read_operator(out / "operator_k1_pre.txt")
    assert header["T"] == 1 and pre.shape == (3, 3)
