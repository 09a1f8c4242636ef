"""The benchmark in perfbench/ wraps functions of the program by name.  A
renamed or removed hooked function must fail here, not only in a traced
benchmark run."""

import gc
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("pipeline", "model", "autograd", "optim", "tuning", "accountant", "attacks", "artifacts", "corpus")


def test_perfbench_hooks_install_on_the_program_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    px = {name: importlib.import_module(f"promptxfer.{name}") for name in MODULES}
    lm = px["model"].TransformerLM
    owners = [*px.values(), lm, px["autograd"].Tensor, px["optim"].Optimizer, px["pipeline"].SeedRun]
    before = [dict(vars(o)) for o in owners]
    forward = lm._forward_batch
    callbacks = list(gc.callbacks)

    patches = tracing.Patches()
    try:
        boundary = tracing.Boundary()
        boundary.install(patches, px["pipeline"])
        tracing.SaveLog().install(patches, px["artifacts"])
        tracing.Tracer(boundary).install(patches, px)
        assert lm._forward_batch is not forward
    finally:
        patches.restore()
    assert [dict(vars(o)) for o in owners] == before
    assert gc.callbacks == callbacks
