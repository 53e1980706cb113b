"""Circuit documents, command wiring, and exit codes."""

import json
import math
import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ptrsim import cli, fock, harness, linamp
from ptrsim.errors import CircuitFormatError
from ptrsim.ptr import Pdc, build_ptr
from test_gaussian import high_gain_circuit
from test_ptr import haar


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


def assert_same_circuit(first, second):
    assert (first.n_s_paths, first.n_i_paths) == (second.n_s_paths, second.n_i_paths)
    assert [type(el) for el in first.elements] == [type(el) for el in second.elements]
    for a, b in zip(first.elements, second.elements):
        assert a == b if isinstance(a, Pdc) else np.array_equal(a.matrix, b.matrix)
    setup_a, setup_b = build_ptr(first), build_ptr(second)
    assert np.array_equal(setup_a.scattering.full, setup_b.scattering.full)
    assert setup_a.nc == setup_b.nc


@st.composite
def documents(draw):
    n_s, n_i = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    elements = []
    tags = st.sampled_from(["pdc", "linear_s", "linear_i", "phase_s", "phase_i"])
    for tag in draw(st.lists(tags, max_size=6)):
        if tag == "pdc":
            s, i = draw(st.integers(0, n_s - 1)), draw(st.integers(0, n_i - 1))
            elements.append({"type": tag, "s": s, "i": i, "r": draw(st.floats(0.0, 3.0))})
        elif tag.startswith("linear"):
            unitary = haar(n_s if tag == "linear_s" else n_i, draw(st.integers(0, 2**32 - 1)))
            elements.append({"type": tag, "matrix": [[[z.real, z.imag] for z in row] for row in unitary]})
        else:
            path = draw(st.integers(0, (n_s if tag == "phase_s" else n_i) - 1))
            elements.append({"type": tag, "path": path, "phi": draw(finite)})
    return {"s_paths": n_s, "i_paths": n_i, "elements": elements}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(documents())
def test_document_round_trip_property(document):
    circuit = cli.parse_circuit(document)
    reparsed = cli.parse_circuit(json.loads(json.dumps(cli.circuit_to_document(circuit))))
    assert_same_circuit(circuit, reparsed)


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


def test_amp_command_reads_a_roundoff_scale_pair_as_agreeing(tmp_path, capsys):
    # |a| = 4.3e-15 on both arms: below linamp.ATOL, so residual zero, as verify reads it
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(cli.circuit_to_document(harness.random_circuit(2, 2, 2, 2, 0.01))))
    code = cli.main(["amp", "--circuit", str(path), "--input", "0,0;0,0", "--output", "3,2;2,3", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["rel_residual"] == 0.0 and 0 < payload["abs_residual"] < linamp.ATOL


def test_amp_command_refuses_a_count_beyond_64_bits(tmp_path, capsys):
    path = tmp_path / "one_source.json"
    path.write_text(json.dumps({"s_paths": 2, "i_paths": 2, "elements": [{"type": "pdc", "s": 0, "i": 0, "r": 0.5}]}))
    code = cli.main(["amp", "--circuit", str(path), "--input", "1180591620717411303424,0;0,0", "--output", "0,0;0,0"])
    assert code == 2
    assert "occupation counts must fit in 64 bits, got 1180591620717411303424" in capsys.readouterr().err


def test_amp_command_rejects_malformed_occupations(circuit_file, capsys):
    code = cli.main(["amp", "--circuit", circuit_file, "--input", "1;1", "--output", "1,0;1,0"])
    assert code == 2
    assert "does not match" in capsys.readouterr().err


def test_verify_command_json_and_exit_codes(circuit_file, capsys):
    assert cli.main(["verify", "--circuit", circuit_file, "--max-photons", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_rel_residual"] < 1e-8
    report = linamp.verify_duality(cli._load_circuit(circuit_file), photon_budget=2, leak_tol=fock.DEFAULT_LEAK_TOL)
    rows = report.occupations.tolist()
    worst = [k for k, r in enumerate(report.rel_residual) if r == report.max_rel_residual][0]
    a, b = report.comparisons[worst]
    texts = ["{},{};{},{}".format(*rows[a]), "{},{};{},{}".format(*rows[b])]
    assert [payload["worst_input"], payload["worst_output"]] == texts
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


def test_qfunc_command_passes_at_high_gain(tmp_path, capsys):
    path = tmp_path / "high_gain.json"
    path.write_text(json.dumps(cli.circuit_to_document(high_gain_circuit())))
    assert cli.main(["qfunc", "--circuit", str(path)]) == 0


def test_linear_algebra_failure_exits_3(circuit_file, capsys, monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli.gaussian, "q_duality_residual", singular)
    assert cli.main(["qfunc", "--circuit", circuit_file]) == 3
    assert "numerical failure: Singular matrix" in capsys.readouterr().err


def test_amp_command_exits_3_on_a_nan_amplitude(circuit_file, capsys, monkeypatch):
    monkeypatch.setattr(cli.linamp, "_counts_amplitude", lambda *args: complex(math.nan, 0.0))
    code = cli.main(["amp", "--circuit", circuit_file, "--input", "1,0;1,0", "--output", "0,1;0,1"])
    assert code == 3
    assert "numerical failure: residual is nan" in capsys.readouterr().err


def test_verify_command_exits_3_on_a_nan_residual_after_a_finite_one(circuit_file, capsys, monkeypatch):
    occupations = np.array([[0, 0, 0, 0], [1, 0, 0, 1], [0, 1, 1, 0], [2, 0, 1, 1]])
    residuals = np.array([0.1, math.nan])
    amplitudes = np.ones(2, dtype=np.complex128)
    report = linamp.DualityReport(10, 1.0, occupations, np.array([[0, 0], [1, 2]]), amplitudes, amplitudes,
                                  residuals, residuals)
    monkeypatch.setattr(cli.linamp, "verify_duality", lambda *args, **kwargs: report)
    # the finite residual alone would pass at this tolerance
    assert cli.main(["verify", "--circuit", circuit_file, "--tol", "1"]) == 3
    captured = capsys.readouterr()
    assert "max rel residual: nan" in captured.out
    assert "pairs checked: 2 (budget 4, cap 10)" in captured.out
    assert "worst pair: 1,0;0,1 -> 0,1;1,0" in captured.out
    assert "numerical failure: residual is nan" in captured.err


@pytest.mark.parametrize("residual", [math.nan, math.inf])
def test_qfunc_command_exits_3_on_a_non_finite_residual(circuit_file, capsys, monkeypatch, residual):
    monkeypatch.setattr(cli.gaussian, "q_duality_residual", lambda *args: residual)
    assert cli.main(["qfunc", "--circuit", circuit_file]) == 3
    assert f"numerical failure: residual is {residual}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["ptr", "--circuit", "CIRCUIT", "--tol", "1"],
        ["examples", "--seed", "3"],
        ["teleport", "--tol", "1e-3"],
        ["qfunc", "--circuit", "CIRCUIT", "--cutoff", "5"],
        ["amp", "--circuit", "CIRCUIT", "--input", "1,0;0,1", "--output", "1,0;0,1", "--max-photons", "2"],
        ["awp", "--max-photons", "3"],
    ],
)
def test_commands_refuse_flags_they_do_not_read(circuit_file, capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([circuit_file if arg == "CIRCUIT" else arg for arg in argv])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


EXPLICIT_POINTS = ["--alpha-s", "0.1,0.2", "--alpha-i", "0.1,-0.2j", "--beta-s", "0.05,0.1j", "--beta-i", "0.2,0.1"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["qfunc", "--circuit", "CIRCUIT", "--points", "7"] + EXPLICIT_POINTS, "--points"),
        (["qfunc", "--circuit", "CIRCUIT", "--seed", "3"] + EXPLICIT_POINTS, "--seed"),
        (["verify", "--circuit", "CIRCUIT", "--max-photons", "1", "--seed", "5"], "--seed"),
        (["teleport", "--ch", "0.6", "--cv", "0.8j", "--seed", "3"], "--seed"),
    ],
)
def test_commands_refuse_flags_they_would_ignore(circuit_file, capsys, argv, flag):
    assert cli.main([circuit_file if arg == "CIRCUIT" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert f"error: {flag} has no effect" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv, flag",
    [(["qfunc", "--circuit", "CIRCUIT", "--alpha-s", ""], "--alpha-s"), (["teleport", "--ch", "", "--cv", ""], "--ch")],
)
def test_empty_flags_are_refused_not_ignored(circuit_file, capsys, argv, flag):
    """An empty value is a given flag, so the command refuses it instead of drawing random points."""
    assert cli.main([circuit_file if arg == "CIRCUIT" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""


def single_source_file(tmp_path, r: float) -> str:
    path = tmp_path / "single_source.json"
    source = {"type": "pdc", "s": 0, "i": 0, "r": r}
    path.write_text(json.dumps({"s_paths": 1, "i_paths": 1, "elements": [source]}))
    return str(path)


@pytest.mark.parametrize(
    "command", [["ptr"], ["qfunc"], ["amp", "--input", "0;0", "--output", "1;1"], ["verify"]]
)
def test_gain_overflow_is_a_numerical_failure(tmp_path, capsys, command):
    # cosh(800) overflows a float
    assert cli.main(command + ["--circuit", single_source_file(tmp_path, 800.0)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_a_ladder_too_long_to_decompose_is_a_size_failure(tmp_path, capsys):
    """At cap 4000 the vacuum's ladder has 2001 rungs, whose dense matrix would hold just over DIM_LIMIT entries."""
    argv = ["verify", "--circuit", single_source_file(tmp_path, 0.5), "--max-photons", "0", "--cutoff", "4000"]
    assert cli.main(argv) == 3
    assert "pair-source ladder of 2001 rungs" in capsys.readouterr().err


def test_indefinite_q_covariance_is_a_numerical_failure(tmp_path, capsys):
    # at r = 30 the Q covariance rounds to singular in float64
    assert cli.main(["qfunc", "--circuit", single_source_file(tmp_path, 30.0)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "not positive definite" in err


def test_awp_command(capsys):
    assert cli.main(["awp", "--gain", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "four-photon ratio" in out


def test_awp_cutoff_raises_the_cap_the_leak_guard_asks_for(capsys):
    """At gain 0.6 the default cap of 14 leaves a leak estimate of 1.1e-3; at 30 the identity holds to 3.4e-14."""
    assert cli.main(["awp", "--gain", "0.6"]) == 3
    assert "raise the photon cap" in capsys.readouterr().err
    assert cli.main(["awp", "--gain", "0.6", "--cutoff", "30", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["identity_residual"] < 1e-12


@pytest.mark.parametrize("cutoff", ["3", "-1"])
def test_awp_refuses_a_cutoff_below_its_four_photons(capsys, cutoff):
    assert cli.main(["awp", "--cutoff", cutoff]) == 2
    assert "error: photon cap below the requested occupations" in capsys.readouterr().err


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


def test_main_reuses_one_parser_with_unchanged_results(circuit_file, capsys):
    runs = [
        ["ptr", "--circuit", circuit_file, "--json"],
        ["amp", "--circuit", circuit_file, "--input", "1,0;1,0", "--output", "0,1;0,1"],
        ["verify", "--circuit", circuit_file, "--max-photons", "1", "--samples", "3", "--json"],
        ["amp", "--circuit", circuit_file],  # argparse refuses: exit 2
        ["qfunc", "--circuit", circuit_file, "--points", "3", "--seed", "5"],
        ["verify", "--circuit", circuit_file, "--max-photons", "1", "--tol", "1e-30"],
        ["ptr", "--circuit", circuit_file, "--json"],
    ]

    def fresh_parser(argv):
        return cli.dispatch(cli.build_parser().parse_args(argv))

    parser = cli._shared_parser()
    codes = []
    for argv in runs:
        results = []
        for entry in (cli.main, fresh_parser):
            try:
                code = entry(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        assert results[0] == results[1], argv
        codes.append(results[0][0])
    assert codes == [0, 0, 0, 2, 0, 1, 0]
    assert cli._shared_parser() is parser


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "--samples", "0"], "--samples"),
        (["verify", "--samples", "-3"], "--samples"),
        (["qfunc", "--points", "0"], "--points"),
    ],
)
def test_counts_must_be_positive_integers(circuit_file, capsys, argv, flag):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv + ["--circuit", circuit_file])
    assert exit_info.value.code == 2
    assert f"argument {flag}: expected a positive integer" in capsys.readouterr().err


def test_verify_refuses_a_cap_below_the_budget(circuit_file, capsys):
    assert cli.main(["verify", "--circuit", circuit_file, "--cutoff", "2", "--max-photons", "4"]) == 2
    assert "photon cap 2 is below the photon budget 4" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["amp", "--circuit", "CIRCUIT", "--input", "1,0;1,0", "--output", "0,1;0,1"],
        ["verify", "--circuit", "CIRCUIT", "--max-photons", "2"],
        ["qfunc", "--circuit", "CIRCUIT"],
        ["awp"],
    ],
    ids=lambda argv: argv[0],
)
def test_tolerance_must_be_finite_and_nonnegative(circuit_file, capsys, argv, tol):
    """At --tol inf every residual passed, whatever the fault; NaN and negative ones could never pass."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main([circuit_file if arg == "CIRCUIT" else arg for arg in argv] + [f"--tol={tol}"])
    assert exit_info.value.code == 2
    assert f"argument --tol: expected a finite nonnegative tolerance, got '{tol}'" in capsys.readouterr().err


@pytest.mark.parametrize("gain", ["0", "-0.05"])
def test_awp_refuses_a_gain_that_is_not_positive(capsys, gain):
    """At gain 0 both four-photon amplitudes vanish, and their ratio divided by zero (exit 3)."""
    assert cli.main(["awp", "--gain", gain]) == 2
    assert f"error: four-photon ratio needs a positive gain, got {float(gain)}" in capsys.readouterr().err
    with pytest.raises(ValueError, match="needs a positive gain"):
        harness.four_photon_ratio(float(gain))
