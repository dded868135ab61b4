"""Helpers shared by the test modules."""

import os
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env():
    """The environment for a child Python process, with this checkout's
    ``src`` first on PYTHONPATH so that the child imports the same posecast."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture(scope="session", autouse=True)
def no_child_process_outlives_the_session():
    """At the end of the session, shut the chunk workers down, then fail
    if any child process is left, running or unreaped."""
    yield
    from posecast import workers

    workers.shutdown()
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return                              # no child at all
    pytest.fail(f"a child process outlived the test session (waitpid gave {pid})")


def read_operator(path):
    """Inverse of ``graphs.write_operator``; returns (matrix, header dict)."""
    with open(path) as f:
        fields = f.readline().split()
        if len(fields) != 5:
            raise ValueError(f"bad operator header in {path}: expected 'V T L D k'")
        v, t, span, max_hop, hop = (int(x) for x in fields)
        matrix = np.array([[float(x) for x in line.split()] for line in f])
    header = {"V": v, "T": t, "L": span, "D": max_hop, "k": hop}
    if matrix.shape != (v * t, v * t):
        raise ValueError(
            f"operator in {path} has shape {matrix.shape}, header implies {(v * t, v * t)}"
        )
    return matrix, header
