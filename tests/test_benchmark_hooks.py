"""The benchmark's tracer finds every posecast name it hooks.

``perfbench/tracer.Patches.patch`` skips a name it cannot find, so a
refactor that renames, moves or folds a hooked function (for example
``GraphConvLayer.forward`` into ``GraphConvTower``) would only zero that
metric. These tests make it fail here instead. They read ``perfbench/``
and change nothing there.
"""

from pathlib import Path

import numpy as np
import pytest

from posecast.data import skeleton_preset
from posecast.model import ModelConfig, build_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def hooks(monkeypatch):
    """Install a Tracer while a spy records every Patches.patch call as
    (owner, name, whether the owner's attribute was rebound); yields the
    tracer and the records, and uninstalls it afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer as tracer_module

    records = []
    patch = tracer_module.Patches.patch

    def spy(self, owner, name, make):
        original = getattr(owner, name, None)
        patch(self, owner, name, make)
        rebound = original is not None and getattr(owner, name) is not original
        records.append((owner, name, rebound))

    monkeypatch.setattr(tracer_module.Patches, "patch", spy)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        yield tracer, records
    finally:
        tracer.uninstall()


def test_every_hooked_name_resolves(hooks):
    tracer, records = hooks
    missing = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, name, rebound in records if not rebound]
    assert records and missing == []


def test_traced_forward_counts_every_graph_conv_layer(hooks):
    tracer, _ = hooks
    config = ModelConfig(input_frames=3, output_frames=2, span=1, max_hop=1,
                         value_schedule=(3, 4, 3), qk_schedule=(3, 4, 3))
    model = build_model(skeleton_preset("chain_4"), config)
    tracer.register_model(model)
    model.forward(np.zeros((1, 3, 4, 3)))
    towers = [model.v_tower, model.q_tower, model.k_tower, model.refine_tower]
    assert tracer.exact["layers.graph_conv.calls"] == sum(len(t.layers) for t in towers)
    for label in ("v", "q", "k", "refine"):
        assert tracer.times[f"layers.tower.{label}.fwd_s"] > 0.0
