"""The benchmark's tracer wraps library names by attribute; a refactor that

drops or renames one of them must fail here, not only in the benchmark's
own smoke test.
"""

import importlib.util
from pathlib import Path

from capsroute import data, evaluation, model, training

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_resolves_and_uninstall_restores_every_name():
    owners = (model, model.Network, training, evaluation, data)
    before = {owner: dict(vars(owner)) for owner in owners}
    tracer = _load_tracer().Tracer()
    tracer.install()  # looks up every wrapped name: a missing one raises AttributeError
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, name, wrapper in patches:
            assert owner in before and name in before[owner], f"{owner.__name__}.{name}"
            assert getattr(owner, name) is wrapper, f"{owner.__name__}.{name}"
    finally:
        tracer.uninstall()
    for owner, name, _ in patches:
        assert vars(owner)[name] is before[owner][name], f"{owner.__name__}.{name}"
