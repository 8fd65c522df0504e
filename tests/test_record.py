import copy
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellgate.analysis  # noqa: F401  (with the cli, every module that defines a record)
import bellgate.cli  # noqa: F401
from bellgate.apparatus import ApparatusConfig, DetectorConfig, GateState
from bellgate.config import RunPlan
from bellgate.record import FrozenInstanceError, Record, fields, replace
from bellgate.sources import MalusLHV, QuantumState, ThresholdLHV, TravelingInfluence

# Every field given, positionally, for each record class.
SAMPLES = {
    "ApparatusConfig": (2e-3, 0.3, 900.0, 30, 150.0, 1.468, 3e8),
    "GateGeometry": (4.7e-7, 0.016, 2.9e-5, 6.7e-7, 140.0),
    "CausalityReport": (
        math.inf, 0.0, (0.0, 4.7e-7), (6.7e-7, 1.1e-6), (4.7e-7, 0.0), None, 0.0, 2e-7
    ),
    "SpeedInterval": (1, 1e6, 2e6, 1.5e6),
    "GateState": (2.9e-5, 4.7e-7, 1e-6),
    "DetectorConfig": (0.5, 0.25, 10.0, 20.0, 1e-8),
    "CountRecord": (100.0, 80.0, 5.0, 2.0),
    "CountTable16": (np.full((4, 4), 5.0), np.ones((4, 4))),
    "ChshResult": ((0.7, -0.7, 0.7, 0.7), (0.01,) * 4, 2.8, 0.02),
    "DegradationResult": ((0.01, 0.02, 3e-4), (1e-3, 1e-3, 1e-4)),
    "QuantumState": ("plus", 0.9),
    "MalusLHV": (),
    "ThresholdLHV": (),
    "TravelingInfluence": (QuantumState(), MalusLHV(), 3e8),
    "RunPlan": (ApparatusConfig(), DetectorConfig(0.5, 0.25), MalusLHV(), 1000.0, 2.0,
                False, 7, "single"),
    "Calibration": (1.6e6, 0.02, 0.012),
    "_Field": ("duty_cycle", "duty_cycle", "duty_cycle", str),
}


def _same(a, b):
    """Equal field by field; array fields compare by value."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip((getattr(a, n) for n in fields(a)), (getattr(b, n) for n in fields(b)))
    )


@pytest.mark.parametrize("cls", Record.__subclasses__(), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    args = SAMPLES[cls.__name__]
    names = fields(cls)
    assert len(args) == len(names) and fields(cls(*args)) == names
    record = cls(*args)
    # Positional and keyword construction agree; defaults are the class attributes.
    assert record == cls(**dict(zip(names, args)))
    required = sum(name not in vars(cls) for name in names)
    defaulted = cls(*args[:required])
    assert all(getattr(defaulted, n) == getattr(cls, n) for n in names[required:])
    # Bad calls raise TypeError, as a generated __init__ does.
    if required:
        with pytest.raises(TypeError, match="missing"):
            cls(*args[: required - 1])
    if names:
        with pytest.raises(TypeError, match="multiple values"):
            cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError, match="unexpected"):
        cls(*args, not_a_field=1)
    with pytest.raises(TypeError, match="positional"):
        cls(*args, None)
    # Read-only.
    name = names[0] if names else "anything"
    with pytest.raises(FrozenInstanceError):
        setattr(record, name, 1)
    with pytest.raises(FrozenInstanceError):
        delattr(record, name)
    # Equality and hashing on the field values.
    twin = cls(*args)
    assert twin == record and not twin != record
    assert record.__eq__(object()) is NotImplemented
    if any(isinstance(v, np.ndarray) for v in args):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
    # replace and round trips give an equal record.
    assert replace(record) == record
    assert _same(pickle.loads(pickle.dumps(record)), record)
    assert _same(copy.deepcopy(record), record)


def test_record_specifics():
    assert issubclass(FrozenInstanceError, AttributeError)
    assert MalusLHV() != ThresholdLHV()
    detector = DetectorConfig(0.5, 0.25)
    assert replace(detector, dark_rate_bob=3.0) == DetectorConfig(0.5, 0.25, 0.0, 3.0)
    with pytest.raises(ValueError, match="alice efficiency"):
        replace(detector, efficiency_alice=2.0)
    with pytest.raises(TypeError):
        fields(object)
    # The reprs the frozen dataclasses printed.
    assert repr(GateState(2.9411764705882354e-05, 4.681027737996921e-07)) == (
        "GateState(gate_period=2.9411764705882354e-05, aperture_time=4.681027737996921e-07,"
        " phase_offset=0.0)"
    )
    assert repr(TravelingInfluence(QuantumState(), MalusLHV())) == (
        "TravelingInfluence(base=QuantumState(sign_convention='mirrored', visibility=1.0),"
        " uninformed=MalusLHV(), influence_speed=inf)"
    )
    assert repr(RunPlan(ApparatusConfig(), detector, MalusLHV(), 1000.0, 2.0)) == (
        "RunPlan(apparatus=ApparatusConfig(aperture_width=0.001, mirror_radius=0.34,"
        " rotation_rate=1000.0, facet_count=34, fiber_length=200.0, fiber_group_index=1.0,"
        " vacuum_light_speed=299800000.0), detector=DetectorConfig(efficiency_alice=0.5,"
        " efficiency_bob=0.25, dark_rate_alice=0.0, dark_rate_bob=0.0,"
        " coincidence_window=2e-08), model=MalusLHV(), pair_rate=1000.0, integration_time=2.0,"
        " rotation=True, seed=0, accidental_convention='double')"
    )
    # RunPlan's derived attributes are not fields.
    plan = RunPlan(ApparatusConfig(), detector, MalusLHV(), 1000.0, 2.0)
    assert not {"geometry", "gate", "pieces", "informed"} & set(fields(plan))
    assert [model for _, model in plan.pieces] == [plan.model, None]
    assert plan.informed is plan.model
    assert plan.gate == GateState(plan.geometry.gate_period, plan.geometry.aperture_time)


def test_record_subclass_rejects_required_field_after_default():
    with pytest.raises(TypeError):
        class Bad(Record):
            a: float = 1.0
            b: float


def test_importing_the_cli_compiles_no_source():
    # Frozen dataclasses and NamedTuples exec generated source when their
    # class is created: 99 compiles and 13-22 ms of every simulate's startup.
    code = (
        "import sys\n"
        "import numpy, numpy.random\n"
        "compiles = []\n"
        "sys.addaudithook(lambda event, args: compiles.append(args[1])"
        " if event == 'compile' and args[1] == '<string>' else None)\n"
        "import bellgate.cli, bellgate.runner\n"  # what simulate imports
        "print(len(compiles))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"


def test_importing_the_cli_leaves_inspect_unloaded():
    # inspect.get_annotations read each record's fields; importing inspect
    # (with dis, ast and tokenize) once cost every process about 8 ms.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import bellgate.cli\n"
        "sys.exit('inspect' in set(sys.modules) - before)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
