"""Circuit documents, command wiring, and exit codes."""

import json
import math
import re

import numpy as np
import pytest

from ptrsim import cli
from ptrsim.errors import CircuitFormatError
from ptrsim.ptr import build_ptr


def sample_document() -> dict:
    half = math.sqrt(0.5)
    return {
        "s_paths": 2,
        "i_paths": 2,
        "elements": [
            {"type": "pdc", "s": 0, "i": 0, "r": 0.5},
            {
                "type": "linear_s",
                "matrix": [[[half, 0], [half, 0]], [[half, 0], [-half, 0]]],
            },
            {"type": "phase_i", "path": 1, "phi": 1.1},
            {"type": "pdc", "s": 1, "i": 1, "r": 0.4},
        ],
    }


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(sample_document()))
    return str(path)


def test_parse_circuit_round_trip_is_lossless():
    circuit = cli.parse_circuit(sample_document())
    document = cli.circuit_to_document(circuit)
    reparsed = cli.parse_circuit(json.loads(json.dumps(document)))
    original = build_ptr(circuit).scattering.full
    rebuilt = build_ptr(reparsed).scattering.full
    assert np.array_equal(original, rebuilt)


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.pop("s_paths"), "s_paths"),
        (lambda d: d.update(s_paths=0), "s_paths"),
        (lambda d: d.update(extra=1), "unexpected fields"),
        (lambda d: d.update(elements={}), "elements"),
        (lambda d: d["elements"].append({"type": "warp"}), "elements[4].type"),
        (lambda d: d["elements"].append({"type": "pdc", "s": 0, "i": 0}), "elements[4].r"),
        (lambda d: d["elements"].append({"type": "pdc", "s": 0, "i": 0, "r": "x"}), "elements[4].r"),
        (
            lambda d: d["elements"].append({"type": "pdc", "s": 0, "i": 0, "r": 0.1, "q": 1}),
            "unexpected fields",
        ),
        (
            lambda d: d["elements"].append({"type": "phase_s", "path": 0}),
            "elements[4].phi",
        ),
        (
            lambda d: d["elements"].append({"type": "linear_s", "matrix": [[[1, 0], [0, 0]]]}),
            "must be square",
        ),
        (
            lambda d: d["elements"].append({"type": "linear_i", "matrix": [[[1, 0, 0]]]}),
            "elements[4].matrix[0][0]",
        ),
        (
            lambda d: d["elements"].append({"type": "pdc", "s": 5, "i": 0, "r": 0.1}),
            "signal path",
        ),
    ],
)
def test_parse_circuit_reports_field_paths(mutate, needle):
    document = sample_document()
    mutate(document)
    with pytest.raises(CircuitFormatError) as err:
        cli.parse_circuit(document)
    assert needle in str(err.value)


@pytest.mark.parametrize(
    "element,field",
    [
        ({"type": "phase_s", "path": 0, "phi": math.inf}, "elements[4].phi"),
        ({"type": "pdc", "s": 0, "i": 0, "r": math.nan}, "elements[4].r"),
        ({"type": "linear_i", "matrix": [[[1, 0], [0, 0]], [[0, 0], [math.nan, 0]]]}, "elements[4].matrix[1][1]"),
    ],
)
def test_non_finite_values_are_usage_errors(tmp_path, capsys, element, field):
    document = sample_document()
    document["elements"].append(element)
    with pytest.raises(CircuitFormatError, match=re.escape(field)):
        cli.parse_circuit(document)
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(document))  # written as NaN / Infinity, which json reads back
    assert cli.main(["ptr", "--circuit", str(path)]) == 2
    err = capsys.readouterr().err
    assert field in err and "finite" in err


def test_parse_circuit_reports_unitarity_defect():
    document = sample_document()
    document["elements"].append(
        {"type": "linear_s", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1.1, 0]]]}
    )
    with pytest.raises(CircuitFormatError) as err:
        cli.parse_circuit(document)
    message = str(err.value)
    assert "elements[4]" in message and "not unitary" in message and "defect" in message


def test_ptr_command_prints_network(circuit_file, capsys):
    assert cli.main(["ptr", "--circuit", circuit_file]) == 0
    out = capsys.readouterr().out
    for label in ("ss:", "si:", "is:", "ii:", "nc:", "beta factors:"):
        assert label in out


def test_ptr_command_json_blocks_match_library(circuit_file, capsys):
    assert cli.main(["ptr", "--circuit", circuit_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    setup = build_ptr(cli.parse_circuit(sample_document()))
    decoded = np.array([[complex(re, im) for re, im in row] for row in payload["ss"]])
    assert np.allclose(decoded, setup.scattering.ss, atol=1e-15)
    assert np.isclose(complex(*payload["nc"]), setup.nc, atol=1e-15)


def test_amp_command_passes_within_default_tolerance(circuit_file, capsys):
    code = cli.main(
        ["amp", "--circuit", circuit_file, "--input", "1,0;1,0", "--output", "0,1;0,1"]
    )
    assert code == 0
    payload = capsys.readouterr().out
    assert "relative residual" in payload


def test_amp_command_rejects_malformed_occupations(circuit_file, capsys):
    code = cli.main(["amp", "--circuit", circuit_file, "--input", "1;1", "--output", "1,0;1,0"])
    assert code == 2
    assert "does not match" in capsys.readouterr().err


def test_verify_command_json_and_exit_codes(circuit_file, capsys):
    assert cli.main(["verify", "--circuit", circuit_file, "--max-photons", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_rel_residual"] < 1e-8
    # an impossible tolerance turns the same run into a residual failure
    assert (
        cli.main(["verify", "--circuit", circuit_file, "--max-photons", "2", "--tol", "1e-16"])
        == 1
    )
    capsys.readouterr()


def test_verify_command_flags_truncation_as_numerical_failure(circuit_file, capsys):
    code = cli.main(
        ["verify", "--circuit", circuit_file, "--max-photons", "4", "--cutoff", "4"]
    )
    assert code == 3
    assert "truncation leak" in capsys.readouterr().err


def test_usage_errors_exit_2(circuit_file, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["amp", "--circuit", circuit_file])  # missing occupations
    assert exit_info.value.code == 2
    capsys.readouterr()
    assert cli.main(["ptr", "--circuit", "/nonexistent.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bad_document_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["ptr", "--circuit", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    path.write_text(json.dumps({"s_paths": 1, "i_paths": 1, "elements": [{"type": "warp"}]}))
    assert cli.main(["ptr", "--circuit", str(path)]) == 2
    assert "unknown element tag" in capsys.readouterr().err


def test_qfunc_command_seeded_points(circuit_file, capsys):
    assert cli.main(["qfunc", "--circuit", circuit_file, "--points", "7", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "points: 7" in out


def test_qfunc_command_explicit_points_need_all_four(circuit_file, capsys):
    code = cli.main(["qfunc", "--circuit", circuit_file, "--alpha-s", "0.1,0.2"])
    assert code == 2
    assert "--alpha-i" in capsys.readouterr().err
    code = cli.main(
        [
            "qfunc",
            "--circuit",
            circuit_file,
            "--alpha-s",
            "0.1,0.2",
            "--alpha-i",
            "0.1,-0.2j",
            "--beta-s",
            "0.05,0.1j",
            "--beta-i",
            "0.2,0.1",
        ]
    )
    assert code == 0
    capsys.readouterr()


def test_awp_command(capsys):
    assert cli.main(["awp", "--gain", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "four-photon ratio" in out


def test_teleport_command_json(capsys):
    assert cli.main(["teleport", "--gain", "0.04", "--seed", "11", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True


def test_complex_argument_parser():
    values = cli._parse_complex_list("0.5, 1-2j, 0.1i", 3, "--test")
    assert np.allclose(values, [0.5, 1 - 2j, 0.1j])
    with pytest.raises(CircuitFormatError):
        cli._parse_complex_list("0.5", 2, "--test")
    with pytest.raises(CircuitFormatError):
        cli._parse_complex_list("zz", 1, "--test")
    with pytest.raises(CircuitFormatError, match="finite"):
        cli._parse_complex_list("0.5, nan", 2, "--test")
