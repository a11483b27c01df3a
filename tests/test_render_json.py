"""report.render_json writes json.dumps(obj, indent=2, sort_keys=True),
byte for byte, on every report the CLI prints."""

from __future__ import annotations

import json

import pytest

from poissonsing.cli import main
from poissonsing.report import build_report, render_json

from .conftest import CATALOG, structure
from .test_extra_singularities import EXTRA


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


REPORTS = [
    *((text, weights) for text, weights, _ in CATALOG),
    EXTRA[0][:2],
    ("1/2*x^3+1/3*y^3+z^3", (1, 1, 1)),
    ("x*y*z", (1, 1, 1)),  # rejected, with a witness in its gate section
]


@pytest.mark.parametrize("text, weights", REPORTS, ids=[text for text, _ in REPORTS])
def test_analyze_reports_render_as_json_dumps(text, weights):
    report, _ = build_report(text, structure(text, weights))
    assert render_json(report) == reference(report)


def test_the_rejected_report_carries_a_witness():
    report, code = build_report("x*y*z", structure("x*y*z", (1, 1, 1)))
    assert code == 3 and "witness_monomial" in report["gate"]


def test_milnor_payload_prints_as_json_dumps(capsys):
    code = main(["milnor", "--phi", "x^2+y^3+z^5", "--weights", "15,10,6", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0 and out == reference(json.loads(out)) + "\n"


def test_scalars_escapes_and_empty_containers():
    obj = {"b": [1, -2, True, None, "café \"q\"\n"], "a": {}, "c": [], "d": {"z": [[]]}}
    assert render_json(obj) == reference(obj)
    assert render_json("x") == reference("x") and render_json(7) == "7"


def test_a_tuple_renders_as_a_list():
    assert render_json({"w": (1, (2, 3))}) == render_json({"w": [1, [2, 3]]})
    assert render_json({"w": (1, (2, 3))}) == reference({"w": (1, (2, 3))})


@pytest.mark.parametrize("value", [0.5, {1, 2}, {1: "int key"}])
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        render_json({"value": value})
