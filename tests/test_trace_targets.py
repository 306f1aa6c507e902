"""Every function the benchmark's layer trace wraps must still exist.

`perfbench/layertrace.py` names package functions by module and
attribute in TARGETS; if one is renamed or removed, a traced benchmark
run (`--trace 1`) fails.  The file is read and executed in a private
namespace, so nothing is written beside it.
"""

import importlib
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace_namespace():
    ns = {"__name__": "layertrace_under_test"}
    exec(compile(LAYERTRACE.read_text(encoding="utf-8"), str(LAYERTRACE),
                 "exec"), ns)
    return ns


def test_layertrace_targets_resolve():
    ns = _layertrace_namespace()
    assert ns["TARGETS"]
    for name, mod, path, _ in ns["TARGETS"]:
        module = importlib.import_module(f"{ns['PACKAGE']}.{mod}")
        owner, _, attr = path.rpartition(".")
        holder = getattr(module, owner) if owner else module
        if owner:
            assert attr in vars(holder), (name, mod, path)
        assert callable(getattr(holder, attr)), (name, mod, path)
