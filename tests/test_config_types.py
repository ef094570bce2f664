"""The one field-type rule, `models.check_types`: every config constructor
checks and normalises its fields by their annotations, so a library call
refuses, naming the field, what a spec file refuses."""

import dataclasses
import re
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specverify.engine import CostModel, DecodeConfig
from specverify.experiment import ExperimentSpec, spec_from_dict
from specverify.models import PerturbedDraftConfig, SyntheticTargetConfig
from specverify.verify import VerificationPolicy

MARGIN = VerificationPolicy.margin_aware()
# each config with the arguments it needs, all valid
CONFIGS = {
    SyntheticTargetConfig: {"seed": 1},
    PerturbedDraftConfig: {"noise_seed": 7},
    CostModel: {},
    DecodeConfig: {"policy": MARGIN},
    ExperimentSpec: {},
}


def handled(hint) -> bool:
    """An annotation check_types knows: int, float, str, a config class,
    `X | None` and `tuple[X, ...]` of one of those."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        return len(args) == 2 and args[1] is Ellipsis and handled(args[0])
    if type(None) in args:
        return len(args) == 2 and args[1] is type(None) and handled(args[0])
    return hint in (int, float, str) or dataclasses.is_dataclass(hint)


@pytest.mark.parametrize("cls", list(CONFIGS), ids=lambda cls: cls.__name__)
def test_every_config_annotation_is_one_check_types_handles(cls):
    hints = get_type_hints(cls)
    assert list(hints) == [f.name for f in dataclasses.fields(cls)]
    assert [name for name, hint in hints.items() if not handled(hint)] == []


PROBES = [  # each built, or failed with a bare TypeError, struct.error or AttributeError, before
    (lambda: DecodeConfig(MARGIN, max_tokens=2.5), "field 'max_tokens': expected int, got 2.5"),
    (lambda: DecodeConfig(MARGIN, stop_token=True), "field 'stop_token': expected int, got True"),
    (lambda: DecodeConfig(MARGIN, seed=1.5), "field 'seed': expected int, got 1.5"),
    (lambda: SyntheticTargetConfig(seed=True), "field 'seed': expected int, got True"),
    (lambda: SyntheticTargetConfig(seed=1.5), "field 'seed': expected int, got 1.5"),
    (lambda: SyntheticTargetConfig(seed=1, vocab_size=8.5),
     "field 'vocab_size': expected int, got 8.5"),
    (lambda: DecodeConfig(MARGIN, k=2.5), "field 'k': expected int, got 2.5"),
    (lambda: DecodeConfig(MARGIN, temperature="1"), "field 'temperature': expected float, got '1'"),
    (lambda: CostModel(c_draft="x"), "field 'c_draft': expected float, got 'x'"),
    (lambda: PerturbedDraftConfig(noise_seed="7"), "field 'noise_seed': expected int, got '7'"),
    (lambda: DecodeConfig(policy=None), "field 'policy': expected VerificationPolicy, got None"),
    (lambda: ExperimentSpec(target=None), "field 'target': expected SyntheticTargetConfig, got None"),
    (lambda: ExperimentSpec(out=Path("rows.csv")), "field 'out': expected str, got PosixPath"),
    (lambda: CostModel(c_draft=10**400), "field 'c_draft': 1000"),
]


@pytest.mark.parametrize("build, message", PROBES, ids=[m.split("'")[1] for _, m in PROBES])
def test_a_badly_typed_field_is_refused_at_construction(build, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        build()


def nested(depth: int, value=0.9):
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("depth", [1000, 5000])
@pytest.mark.parametrize("build, field", [
    (lambda v: ExperimentSpec(theta=[v]), "theta"),
    (lambda v: DecodeConfig(MARGIN, k=v), "k"),
    (lambda v: SyntheticTargetConfig(seed=1, logit_spread=v), "logit_spread"),
], ids=["theta", "k", "logit_spread"])
def test_a_value_nested_too_deeply_to_quote_is_refused_by_name(build, field, depth):
    """The message that quotes a badly typed value cannot repr one nested this
    deep: the field is named in the words a spec file's refusal uses."""
    with pytest.raises(ValueError, match=f"^field '{field}': nested too deeply$"):
        build(nested(depth))


def test_values_are_stored_as_their_field_types():
    config = DecodeConfig(MARGIN, k=np.int64(7), max_tokens=np.uint8(9), temperature=2)
    assert (config.k, config.max_tokens, config.temperature) == (7, 9, 2.0)
    assert [type(v) for v in (config.k, config.max_tokens, config.temperature)] == [int, int, float]
    assert type(CostModel(c_draft=1).c_draft) is float
    target = SyntheticTargetConfig(seed=np.int32(3), logit_offset=np.float32(0.5))
    assert (type(target.seed), type(target.logit_offset)) == (int, float)
    # a grid axis takes one value, a list or a tuple
    spec = ExperimentSpec(theta=0.5, k=[3, 5], temperature=(1, 0.5))
    assert (spec.theta, spec.k, spec.temperature) == ((0.5,), (3, 5), (1.0, 0.5))
    assert type(spec.temperature[0]) is float
    assert ExperimentSpec(k=7).k == (7,)


def test_a_spec_names_its_nested_fields_first_then_its_fields_in_field_order():
    with pytest.raises(ValueError, match=r"^field 'target\.seed': expected int, got 'y'$"):
        spec_from_dict({"k": "x", "target": {"seed": "y"}})
    with pytest.raises(ValueError, match=r"^field 'k': expected int, got 'y'$"):
        spec_from_dict({"max_tokens": "x", "k": "y"})


def bad_values(hint) -> list:
    """The spec fuzz's badly typed values for a field: a str, a bool, a float
    for an int, None where None is not allowed, a list for a scalar, and an
    int past the float range for a float."""
    args = get_args(hint)
    axis = get_origin(hint) is tuple
    kind = args[0] if axis or type(None) in args else hint
    values = [True]
    if kind is not str:
        values.append("7")
    if kind is int:
        values.append(2.5)
    if kind is float:
        values.append(10**400)
    if type(None) not in args:
        values.append(None)
    if not axis:
        values.append([1])
    return values


@st.composite
def badly_typed_configs(draw):
    """A config class and its arguments with some fields badly typed, and
    the first of those fields in field order."""
    cls = draw(st.sampled_from(list(CONFIGS)))
    hints = get_type_hints(cls)
    names = draw(st.lists(st.sampled_from(list(hints)), min_size=1, max_size=3, unique=True))
    kwargs = dict(CONFIGS[cls])
    for name in names:
        kwargs[name] = draw(st.sampled_from(bad_values(hints[name])))
    return cls, kwargs, min(names, key=list(hints).index)


@given(case=badly_typed_configs())
@settings(max_examples=300, deadline=None)
def test_each_constructor_names_its_first_badly_typed_field(case):
    cls, kwargs, first = case
    with pytest.raises(ValueError, match=rf"^field '{first}': "):
        cls(**kwargs)
