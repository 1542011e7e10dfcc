"""The benchmark tracer wraps program functions by name; every name it
wraps must still exist where it looks it up."""

import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_tracer_target_is_in_its_owners_namespace():
    # run from source so nothing is written next to the tracer
    tracer = runpy.run_path(str(TRACER))
    for module, path, _ in tracer["TARGETS"]:
        owner, attr = tracer["_owner"](module, path)
        # Recorder.install reads and replaces owner.__dict__[attr]
        assert attr in vars(owner), f"{module}.{path} is gone"
        assert callable(tracer["_function"](vars(owner)[attr]))
