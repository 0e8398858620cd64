"""Every dataclass in ``npcode`` is frozen, but for the few named here.

A frozen dataclass refuses assignment to its fields, so a value that is
shared (a code, a matrix, a run's metrics) cannot be changed by one of its
readers under the others. Each mutable one is listed with its reason, and
the list must name exactly the dataclasses that are not frozen.
"""

import dataclasses
import importlib
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "npcode"

MUTABLE = {
    # a frozen __init__ sets each field through object.__setattr__: about
    # 0.7 us against 0.2 us, on every recovered round (ROADMAP item 9)
    "protocol.RecoveryReport",
    "protocol.RoundRecord",
    # parse_config and cmd_simulate fill it in field by field
    "cli.ScenarioConfig",
}


def npcode_dataclasses():
    """(module.Name, class) of every dataclass defined at the top of a module in ``src/npcode``."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("npcode" if path.stem == "__init__" else f"npcode.{path.stem}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                yield f"{path.stem}.{name}", obj


def test_every_dataclass_is_frozen_but_the_named_ones():
    found = dict(npcode_dataclasses())
    assert {"gf2.BitVector", "gf2.BitMatrix", "protocol.SimulationMetrics", "codes.ProtectionCode"} <= set(found)
    mutable = {name for name, cls in found.items() if not cls.__dataclass_params__.frozen}
    assert mutable == MUTABLE
