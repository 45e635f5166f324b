"""CalculatorSpec: validation, dict round-trips, context threading."""

from __future__ import annotations

import pytest

from repro.calculators import (
    CalculatorSpec, make_calculator, parse_kgrid, suggest_key,
)
from repro.classical import StillingerWeber
from repro.errors import ReproError
from repro.linscale import LinearScalingCalculator
from repro.tb import TBCalculator


def test_defaults_describe_a_buildable_calculator():
    spec = CalculatorSpec()
    assert spec.model == "gsp-si" and spec.solver == "diag"
    assert isinstance(make_calculator(spec), TBCalculator)


def test_frozen():
    spec = CalculatorSpec()
    with pytest.raises(AttributeError):
        spec.model = "sw-si"


def test_field_coercion_and_kgrid_normalisation():
    spec = CalculatorSpec(model="gsp-si", solver="linscale", kT="0.2",
                          order="80", kgrid="2x3x4")
    assert spec.kT == 0.2 and isinstance(spec.kT, float)
    assert spec.order == 80 and isinstance(spec.order, int)
    assert spec.kgrid == (2, 3, 4)


def test_bad_numeric_field():
    with pytest.raises(ReproError, match="'kT' must be a number"):
        CalculatorSpec(kT="warm")


def test_from_dict_accepts_spec_none_and_dict():
    spec = CalculatorSpec(model="sw-si")
    assert CalculatorSpec.from_dict(spec) is spec
    assert CalculatorSpec.from_dict(None) == CalculatorSpec()
    assert CalculatorSpec.from_dict({"model": "sw-si"}).model == "sw-si"
    with pytest.raises(ReproError, match="must be a mapping"):
        CalculatorSpec.from_dict(["model"])


def test_unknown_key_suggestion():
    with pytest.raises(ReproError, match="did you mean 'kgrid'"):
        CalculatorSpec.from_dict({"kgird": 2})
    # the historical message prefix is stable API for error matching
    with pytest.raises(ReproError, match="unknown calculator spec keys"):
        CalculatorSpec.from_dict({"completely_novel": 1})


def test_unknown_model_and_solver_suggestions():
    with pytest.raises(ReproError, match="did you mean 'gsp-si'"):
        CalculatorSpec(model="gsp_si")
    with pytest.raises(ReproError, match="did you mean 'linscale'"):
        CalculatorSpec(model="gsp-si", solver="linscal")


def test_context_threads_into_errors():
    with pytest.raises(ReproError, match="op 'load': unknown calculator"):
        CalculatorSpec.from_dict({"oops": 1}, context="op 'load'")
    with pytest.raises(ReproError, match="op 'load'.*kgrid"):
        CalculatorSpec.from_dict({"kgrid": "4xx"}, context="op 'load'")
    with pytest.raises(ReproError, match="op 'eval': kgrid"):
        parse_kgrid("bad", context="op 'eval'")


def test_to_dict_round_trip_and_default_elision():
    spec = CalculatorSpec(model="gsp-si", solver="linscale", kT=0.3,
                          order=60, kgrid=(2, 2, 2))
    d = spec.to_dict()
    assert d["kgrid"] == [2, 2, 2]          # JSON-safe
    assert "skin" not in d                  # defaulted fields elided
    assert CalculatorSpec.from_dict(d) == spec
    assert CalculatorSpec().to_dict() == {}


def test_replace_revalidates():
    spec = CalculatorSpec(model="gsp-si", solver="linscale", kT=0.3)
    assert spec.replace(order=40).order == 40
    with pytest.raises(ReproError, match="unknown solver"):
        spec.replace(solver="nope")


def test_mapping_shim():
    spec = CalculatorSpec(model="sw-si", skin=1.5)
    assert spec.get("skin") == 1.5
    assert spec.get("nonexistent", "d") == "d"
    assert spec["model"] == "sw-si"
    with pytest.raises(KeyError):
        spec["nope"]
    assert dict(spec)["model"] == "sw-si"


def test_cross_field_rules_preserved():
    with pytest.raises(ReproError, match="kgrid_reduce only applies"):
        CalculatorSpec(kgrid_reduce="symmetry")
    with pytest.raises(ReproError, match="diag.*linscale"):
        CalculatorSpec(solver="foe", kT=0.2, kgrid=2)
    with pytest.raises(ReproError, match="classical"):
        CalculatorSpec(model="sw-si", solver="foe")
    with pytest.raises(ReproError, match="tight-binding"):
        CalculatorSpec(model="sw-si", kgrid=2)
    # 'backend' is not a spec key: rejected like any unknown key
    with pytest.raises(ReproError, match="unknown calculator spec keys"):
        CalculatorSpec.from_dict({"solver": "linscale", "kT": 0.2,
                                  "backend": "numpy_loop"})


def test_make_calculator_dispatch_unchanged():
    assert isinstance(make_calculator({"model": "sw-si"}), StillingerWeber)
    lin = make_calculator(CalculatorSpec(
        model="gsp-si", solver="linscale", kT=0.3, order=60))
    assert isinstance(lin, LinearScalingCalculator)


def test_describe_mentions_the_load_bearing_fields():
    text = CalculatorSpec(model="gsp-si", solver="linscale", kT=0.2,
                          kgrid=2, kgrid_reduce="symmetry").describe()
    assert "gsp-si" in text and "linscale" in text
    assert "2x2x2" in text and "symmetry" in text


def test_suggest_key_no_match_is_silent():
    assert suggest_key("zzzzz", ["model", "solver"]) == ""
