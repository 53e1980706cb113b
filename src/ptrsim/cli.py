"""Command-line interface.

Circuits travel as JSON documents with complex numbers encoded as
``[re, im]`` pairs and matrices as row-major nested lists of such pairs.
Results go to stdout (human-readable by default, machine-readable with
``--json``); diagnostics go to stderr.  Exit codes: 0 pass, 1 residual
above tolerance, 2 usage or document error, 3 numerical failure (including
a residual that is NaN or infinite).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from functools import lru_cache

import numpy as np

from . import fock, gaussian, harness, linamp
from .errors import CircuitFormatError, PtrsimError
from .ptr import Circuit, LinearI, LinearS, Pdc, PhaseI, PhaseS, build_ptr

DEFAULT_TOL = 1e-8
DEFAULT_MAX_PHOTONS = 4
DEFAULT_SEED = 0
DEFAULT_POINTS = 50  # random Q-function probes

EXIT_PASS = 0
EXIT_RESIDUAL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# circuit documents
# ---------------------------------------------------------------------------


def _expect_int(value, path: str, minimum: int = 0) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise CircuitFormatError(f"{path}: expected an integer >= {minimum}, got {value!r}")
    return value


def _is_finite_real(value) -> bool:
    # json reads NaN and Infinity as floats
    return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)


def _expect_real(value, path: str) -> float:
    if not _is_finite_real(value):
        raise CircuitFormatError(f"{path}: expected a finite real number, got {value!r}")
    return float(value)


def _decode_complex(value, path: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_is_finite_real, value)):
        raise CircuitFormatError(f"{path}: expected a [re, im] pair of finite numbers, got {value!r}")
    return complex(value[0], value[1])


def _decode_matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise CircuitFormatError(f"{path}: expected a nonempty list of rows")
    width = None
    rows = []
    for j, row in enumerate(value):
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise CircuitFormatError(f"{path}[{j}]: ragged or non-list matrix row")
        width = len(row)
        rows.append([_decode_complex(entry, f"{path}[{j}][{k}]") for k, entry in enumerate(row)])
    matrix = np.asarray(rows, dtype=np.complex128)
    if matrix.shape[0] != matrix.shape[1]:
        raise CircuitFormatError(f"{path}: matrix must be square, got {matrix.shape}")
    return matrix


def _decode_element(entry, path: str):
    if not isinstance(entry, dict):
        raise CircuitFormatError(f"{path}: expected an object")
    tag = entry.get("type")
    known = {
        "pdc": {"type", "s", "i", "r"},
        "linear_s": {"type", "matrix"},
        "linear_i": {"type", "matrix"},
        "phase_s": {"type", "path", "phi"},
        "phase_i": {"type", "path", "phi"},
    }
    if tag not in known:
        raise CircuitFormatError(f"{path}.type: unknown element tag {tag!r}")
    extra = set(entry) - known[tag]
    if extra:
        raise CircuitFormatError(f"{path}: unexpected fields {sorted(extra)} for {tag!r}")
    try:
        if tag == "pdc":
            return Pdc(
                _expect_int(entry.get("s"), f"{path}.s"),
                _expect_int(entry.get("i"), f"{path}.i"),
                _expect_real(entry.get("r"), f"{path}.r"),
            )
        if tag.startswith("linear"):
            linear = LinearS if tag == "linear_s" else LinearI
            return linear(_decode_matrix(entry.get("matrix"), f"{path}.matrix"))
        plate = PhaseS if tag == "phase_s" else PhaseI
        return plate(
            _expect_int(entry.get("path"), f"{path}.path"),
            _expect_real(entry.get("phi"), f"{path}.phi"),
        )
    except ValueError as exc:
        raise CircuitFormatError(f"{path}: {exc}") from exc


def parse_circuit(document) -> Circuit:
    """Decode a circuit document, reporting the offending field on failure."""
    if not isinstance(document, dict):
        raise CircuitFormatError("document root must be an object")
    n_s = _expect_int(document.get("s_paths"), "s_paths", minimum=1)
    n_i = _expect_int(document.get("i_paths"), "i_paths", minimum=1)
    elements_doc = document.get("elements")
    if not isinstance(elements_doc, list):
        raise CircuitFormatError("elements: expected a list")
    extra = set(document) - {"s_paths", "i_paths", "elements"}
    if extra:
        raise CircuitFormatError(f"document: unexpected fields {sorted(extra)}")
    elements = tuple(_decode_element(entry, f"elements[{j}]") for j, entry in enumerate(elements_doc))
    try:
        return Circuit(n_s, n_i, elements)
    except ValueError as exc:
        raise CircuitFormatError(str(exc)) from exc


def _encode_complex(value: complex) -> list[float]:
    value = complex(value)
    return [value.real, value.imag]


def _encode_matrix(matrix: np.ndarray) -> list:
    return [[_encode_complex(entry) for entry in row] for row in np.asarray(matrix)]


def circuit_to_document(circuit: Circuit) -> dict:
    """Inverse of :func:`parse_circuit`; the round trip is lossless.

    Phase plates come out as the diagonal ``linear_s``/``linear_i`` networks
    the circuit stores them as.
    """
    elements = [
        {"type": "pdc", "s": el.s_path, "i": el.i_path, "r": el.r}
        if isinstance(el, Pdc)
        else {"type": f"linear_{el.side}", "matrix": _encode_matrix(el.matrix)}
        for el in circuit.elements
    ]
    return {"s_paths": circuit.n_s_paths, "i_paths": circuit.n_i_paths, "elements": elements}


def _load_circuit(path: str) -> Circuit:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise CircuitFormatError(f"cannot read circuit file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(f"circuit file is not valid JSON: {exc}") from exc
    return parse_circuit(document)


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """Argument type of counts that must be at least one."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _tolerance(text: str) -> float:
    """Argument type of ``--tol``: finite and nonnegative, so that a pass means the residual was bounded."""
    try:
        if math.isfinite(value := float(text)) and value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite nonnegative tolerance, got {text!r}")


def _parse_occupation(text: str, n_s: int, n_i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    try:
        s_part, i_part = text.split(";")
        s_counts = tuple(int(x) for x in s_part.split(","))
        i_counts = tuple(int(x) for x in i_part.split(","))
    except ValueError as exc:
        raise CircuitFormatError(
            f"occupation {text!r} must look like 's0,s1;i0,i1' with integer counts"
        ) from exc
    if len(s_counts) != n_s or len(i_counts) != n_i:
        raise CircuitFormatError(
            f"occupation {text!r} does not match the circuit's {n_s}+{n_i} paths"
        )
    if min(s_counts + i_counts) < 0:
        raise CircuitFormatError(f"occupation {text!r} has negative counts")
    return s_counts, i_counts


def _parse_complex_list(text: str, expected: int, what: str) -> np.ndarray:
    try:
        values = [complex(part.strip().replace("i", "j")) for part in text.split(",")]
    except ValueError as exc:
        raise CircuitFormatError(f"{what}: cannot parse complex list {text!r}") from exc
    if len(values) != expected:
        raise CircuitFormatError(f"{what}: expected {expected} entries, got {len(values)}")
    if not all(map(cmath.isfinite, values)):
        raise CircuitFormatError(f"{what}: entries must be finite, got {text!r}")
    return np.asarray(values, dtype=np.complex128)


def _seed(args) -> int:
    """``--seed``, which defaults to None so that a command can tell it was given."""
    return DEFAULT_SEED if args.seed is None else args.seed


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))


def _verdict(residual: float, tol: float) -> int:
    """Exit code for a residual checked against ``tol``; NaN or inf is a numerical failure."""
    if not math.isfinite(residual):
        print(f"numerical failure: residual is {residual}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_PASS if residual <= tol else EXIT_RESIDUAL


def _matrix_lines(name: str, matrix: np.ndarray) -> list[str]:
    body = np.array2string(np.asarray(matrix), precision=12, suppress_small=False)
    return [f"{name}:"] + ["  " + line for line in body.splitlines()]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_ptr(args) -> tuple[int, dict, list[str]]:
    circuit = _load_circuit(args.circuit)
    setup = build_ptr(circuit)
    scattering = setup.scattering
    payload = {
        "ss": _encode_matrix(scattering.ss),
        "si": _encode_matrix(scattering.si),
        "is": _encode_matrix(scattering.is_),
        "ii": _encode_matrix(scattering.ii),
        "nc": _encode_complex(setup.nc),
        "beta_factors": [_encode_complex(b) for b in setup.beta_factors],
        "gain_prefactor": setup.t_product,
    }
    lines = (
        _matrix_lines("ss", scattering.ss)
        + _matrix_lines("si", scattering.si)
        + _matrix_lines("is", scattering.is_)
        + _matrix_lines("ii", scattering.ii)
        + [
            f"nc: {setup.nc:.15g}",
            f"beta factors: {[format(b, '.15g') for b in setup.beta_factors]}",
            f"gain prefactor: {setup.t_product:.15g}",
        ]
    )
    return EXIT_PASS, payload, lines


def _occupation_text(row, n_s: int) -> str:
    """A count row, signal paths first, in the syntax of ``--input``."""
    return ",".join(map(str, row[:n_s])) + ";" + ",".join(map(str, row[n_s:]))


def _cmd_amp(args) -> tuple[int, dict, list[str]]:
    circuit = _load_circuit(args.circuit)
    s_in, i_in = _parse_occupation(args.input, circuit.n_s_paths, circuit.n_i_paths)
    s_out, i_out = _parse_occupation(args.output, circuit.n_s_paths, circuit.n_i_paths)
    report = linamp.compare_amplitudes(
        circuit, [s_in + i_in, s_out + i_out], [(0, 1)], photon_cap=args.cutoff, leak_tol=fock.DEFAULT_LEAK_TOL
    )
    brute, dual = complex(report.nonlinear[0]), complex(report.dual[0])
    residual = float(report.rel_residual[0])
    payload = {
        "input": args.input,
        "output": args.output,
        "nonlinear_amplitude": _encode_complex(brute),
        "ptr_amplitude": _encode_complex(dual),
        "abs_residual": float(report.abs_residual[0]),
        "rel_residual": residual,
    }
    lines = [
        f"nonlinear amplitude: {brute:.15g}",
        f"ptr amplitude:       {dual:.15g}",
        f"relative residual:   {residual:.3e}",
    ]
    return _verdict(residual, args.tol), payload, lines


def _cmd_verify(args) -> tuple[int, dict, list[str]]:
    if args.samples is None and args.seed is not None:
        raise CircuitFormatError("--seed has no effect without --samples")
    circuit = _load_circuit(args.circuit)
    report = linamp.verify_duality(
        circuit,
        photon_budget=args.max_photons,
        photon_cap=args.cutoff,
        sample_count=args.samples,
        seed=_seed(args),
        leak_tol=fock.DEFAULT_LEAK_TOL,
    )
    worst_input, worst_output = (_occupation_text(row, circuit.n_s_paths) for row in report.worst_pair)
    payload = {
        "photon_budget": report.photon_budget,
        "photon_cap": report.photon_cap,
        "pairs_checked": len(report.comparisons),
        "nc": _encode_complex(report.nc),
        "max_abs_residual": report.max_abs_residual,
        "max_rel_residual": report.max_rel_residual,
        "worst_input": worst_input,
        "worst_output": worst_output,
    }
    lines = [
        f"pairs checked: {len(report.comparisons)} (budget {report.photon_budget}, cap {report.photon_cap})",
        f"nc: {report.nc:.15g}",
        f"max abs residual: {report.max_abs_residual:.3e}",
        f"max rel residual: {report.max_rel_residual:.3e}",
        f"worst pair: {worst_input} -> {worst_output}",
    ]
    return _verdict(report.max_rel_residual, args.tol), payload, lines


def _cmd_qfunc(args) -> tuple[int, dict, list[str]]:
    circuit = _load_circuit(args.circuit)
    n_s, n_i = circuit.n_s_paths, circuit.n_i_paths
    if args.alpha_s or args.alpha_i or args.beta_s or args.beta_i:
        missing = [
            name
            for name, value in (
                ("--alpha-s", args.alpha_s),
                ("--alpha-i", args.alpha_i),
                ("--beta-s", args.beta_s),
                ("--beta-i", args.beta_i),
            )
            if not value
        ]
        if missing:
            raise CircuitFormatError(f"explicit points need {' and '.join(missing)} as well")
        for flag, value in (("--points", args.points), ("--seed", args.seed)):
            if value is not None:
                raise CircuitFormatError(f"{flag} has no effect next to explicit --alpha-*/--beta-* points")
        alpha_s = _parse_complex_list(args.alpha_s, n_s, "--alpha-s")
        alpha_i = _parse_complex_list(args.alpha_i, n_i, "--alpha-i")
        beta_s = _parse_complex_list(args.beta_s, n_s, "--beta-s")[np.newaxis, :]
        beta_i = _parse_complex_list(args.beta_i, n_i, "--beta-i")[np.newaxis, :]
        points = 1
    else:
        rng = np.random.default_rng(_seed(args))
        points = args.points or DEFAULT_POINTS
        alpha_s = 0.5 * (rng.normal(size=n_s) + 1j * rng.normal(size=n_s))
        alpha_i = 0.5 * (rng.normal(size=n_i) + 1j * rng.normal(size=n_i))
        beta_s = 0.6 * (rng.normal(size=(points, n_s)) + 1j * rng.normal(size=(points, n_s)))
        beta_i = 0.6 * (rng.normal(size=(points, n_i)) + 1j * rng.normal(size=(points, n_i)))
    residual = gaussian.q_duality_residual(circuit, alpha_s, alpha_i, beta_s, beta_i)
    payload = {"points": points, "max_rel_residual": residual}
    lines = [f"points: {points}", f"max rel residual: {residual:.3e}"]
    return _verdict(residual, args.tol), payload, lines


def _cmd_awp(args) -> tuple[int, dict, list[str]]:
    ratio = harness.four_photon_ratio(args.gain, seed=_seed(args))
    circuit = harness._awp_scenario_circuit(args.gain, _seed(args))
    nc = build_ptr(circuit).nc
    identity_residual = abs(ratio / nc - 1.0)
    payload = {
        "gain": args.gain,
        "classical_ratio": _encode_complex(ratio),
        "classical_ratio_deviation": abs(ratio - 1.0),
        "identity_residual": identity_residual,
    }
    lines = [
        f"four-photon ratio (classical bookkeeping): {ratio:.12g}",
        f"deviation from one: {abs(ratio - 1.0):.3e}  (vanishes as gain^2)",
        f"exact-identity residual: {identity_residual:.3e}",
    ]
    return _verdict(identity_residual, args.tol), payload, lines


def _cmd_examples(args) -> tuple[int, dict, list[str]]:
    reports = harness.run_reference_examples()
    payload = {"reports": [rep.as_dict() for rep in reports]}
    lines = [rep.summary() for rep in reports]
    code = EXIT_PASS if all(rep.passed for rep in reports) else EXIT_RESIDUAL
    return code, payload, lines


def _cmd_teleport(args) -> tuple[int, dict, list[str]]:
    if args.ch or args.cv:
        if not (args.ch and args.cv):
            raise CircuitFormatError("give both --ch and --cv or neither")
        if args.seed is not None:
            raise CircuitFormatError("--seed has no effect next to explicit --ch/--cv")
        c_h = _parse_complex_list(args.ch, 1, "--ch")[0]
        c_v = _parse_complex_list(args.cv, 1, "--cv")[0]
    else:
        rng = np.random.default_rng(_seed(args))
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        c_h, c_v = raw / np.linalg.norm(raw)
    report = harness.teleportation_demo(args.gain, (c_h, c_v))
    payload = report.as_dict()
    lines = [report.summary()] + [
        f"  {key}: {value:.3e}" for key, value in report.residuals.items()
    ]
    return (EXIT_PASS if report.passed else EXIT_RESIDUAL), payload, lines


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptrsim",
        description="Duality checks between nonlinear optical circuits and their time-reversed linear networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def flag(*names, **options) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **options)
        return parent

    circuit = flag("--circuit", required=True, help="circuit document (JSON)")
    cutoff = flag("--cutoff", type=int, default=None, help="total photon cap (default: auto)")
    max_photons = flag("--max-photons", type=int, default=DEFAULT_MAX_PHOTONS, help="photon budget per side")
    tol = flag("--tol", type=_tolerance, default=DEFAULT_TOL, help="pass/fail tolerance")
    seed = flag("--seed", type=int, default=None, help=f"random seed (default {DEFAULT_SEED})")
    as_json = flag("--json", action="store_true", help="machine-readable output")

    commands = {  # name: (help, the shared flags it reads)
        "ptr": ("print the time-reversed network, nc, and cavity factors", [circuit]),
        "amp": ("compare one postselection amplitude across both arms", [circuit, cutoff, tol]),
        "verify": ("compare all amplitudes within a photon budget", [circuit, cutoff, max_photons, tol, seed]),
        "qfunc": ("Q-function duality on coherent points", [circuit, tol, seed]),
        "awp": ("four-photon coincidence ratio on the built-in two-crystal scene", [tol, seed]),
        "examples": ("run the closed-form reference scenarios", []),
        "teleport": ("polarization teleportation demonstration", [seed]),
    }
    parsers = {
        name: sub.add_parser(name, help=text, parents=shared + [as_json])
        for name, (text, shared) in commands.items()
    }
    p = parsers["amp"]
    p.add_argument("--input", required=True, help="input occupation 's0,s1;i0'")
    p.add_argument("--output", required=True, help="output occupation 's0,s1;i0'")
    parsers["verify"].add_argument(
        "--samples", type=_positive_int, default=None, help="subsample this many pairs"
    )
    p = parsers["qfunc"]
    p.add_argument("--points", type=_positive_int, default=None, help=f"random probe points (default {DEFAULT_POINTS})")
    p.add_argument("--alpha-s", default=None, help="input signal coherent amplitudes, comma separated")
    p.add_argument("--alpha-i", default=None, help="input idler coherent amplitudes")
    p.add_argument("--beta-s", default=None, help="probe signal coherent amplitudes")
    p.add_argument("--beta-i", default=None, help="probe idler coherent amplitudes")
    for name in ("awp", "teleport"):
        parsers[name].add_argument("--gain", type=float, default=0.05, help="pair gain of both crystals")
    p = parsers["teleport"]
    p.add_argument("--ch", default=None, help="prepared H amplitude, e.g. '0.6'")
    p.add_argument("--cv", default=None, help="prepared V amplitude, e.g. '0.8j'")
    return parser


_COMMANDS = {
    "ptr": _cmd_ptr,
    "amp": _cmd_amp,
    "verify": _cmd_verify,
    "qfunc": _cmd_qfunc,
    "awp": _cmd_awp,
    "examples": _cmd_examples,
    "teleport": _cmd_teleport,
}


def dispatch(args: argparse.Namespace) -> int:
    """Run one parsed command; prints results, returns the exit code."""
    try:
        code, payload, lines = _COMMANDS[args.command](args)
    except CircuitFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PtrsimError, ArithmeticError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(payload, args.json, lines)
    return code


#: the parser of :func:`main`, built on first use; parsing leaves it unchanged
_shared_parser = lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    return dispatch(_shared_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
