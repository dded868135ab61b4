"""Round-trip the on-disk formats and drive the CLI programmatically.

Writes a pose container and a training config into a temp directory, runs
`posecast train` / `posecast eval` through the same entry point the
console script uses, and reloads the resulting checkpoint. The directory
is removed when the demo ends.
"""

import json
import tempfile
from pathlib import Path

import yaml

from posecast import cli
from posecast.data import load_sequences, save_sequences, synth_kinematic
from posecast.model import load_checkpoint

with tempfile.TemporaryDirectory(prefix="posecast_demo_") as tmp:
    workdir = Path(tmp)
    print(f"working in {workdir}")

    sequences = [synth_kinematic(4, frames=60, period=8, seed=s) for s in range(2)]
    dataset = workdir / "poses.mgps"
    save_sequences(dataset, sequences)
    reloaded = load_sequences(dataset)
    print(f"container round-trip: {len(reloaded)} sequences, "
          f"{reloaded[0].joint_count} joints, {len(reloaded[0])} frames each")

    config = {
        "seed": 1,
        "dataset": str(dataset),
        "skeleton": "chain_4",
        "output_dir": str(workdir / "run"),
        "model": {
            "input_frames": 5, "output_frames": 4, "span": 1, "max_hop": 1,
            "strategy": "pseudo_autoregressive",
            "value_schedule": [3, 8, 3], "qk_schedule": [3, 4, 3],
        },
        "train": {"epochs": 5, "batch_size": 32, "lr_initial": 0.02,
                  "lr_decay_epochs": [4]},
        "horizons": [1, 4],
    }
    config_path = workdir / "train.yaml"
    config_path.write_text(yaml.safe_dump(config))

    code = cli.main(["train", str(config_path)])
    print(f"posecast train exited {code}")

    checkpoint = workdir / "run" / "checkpoint.pckp"
    eval_out = workdir / "eval.json"
    code = cli.main(["eval", str(checkpoint), str(dataset),
                     "--horizons", "1,4", "--baseline", "--out", str(eval_out)])
    print(f"posecast eval exited {code}")
    print(json.dumps(json.loads(eval_out.read_text()), indent=2))

    model = load_checkpoint(checkpoint)
    print(f"reloaded model: {model.count_parameters()} parameters, "
          f"strategy {model.config.strategy}")
