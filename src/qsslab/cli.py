"""Command-line surface.

Every subcommand emits a ReportDocument as JSON (stable key order,
trailing newline) to --out or stdout, embedding a hash of the numerical
configuration and the seed, so runs are replayable. Only search, probe
and random-state read a seed and take --seed; the other reports carry
"seed": null. Every state a command reads is bipartite: it has exactly
two tensor factors. The class of an error picks the exit code: bad input
(_INPUT_ERRORS) exits 2, any other QsslabError 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

from . import __version__, entanglement, protocol, qss, search, states
from .config import TOLERANCES
from .errors import (
    BadParameters,
    DimensionMismatch,
    InvalidState,
    NonUnitary,
    ParseError,
    QsslabError,
    ZeroProbability,
)

# errors in what the caller gave: each exits 2, any other QsslabError 1
_INPUT_ERRORS = (ParseError, InvalidState, BadParameters, DimensionMismatch,
                 NonUnitary, ZeroProbability)

# random-state's largest total dimension: 256 takes 0.4 s and 70 MB
_MAX_RANDOM_DIM = 256

CONFIG_HASH = hashlib.sha256(
    json.dumps(TOLERANCES, sort_keys=True).encode()
).hexdigest()[:16]


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"no such file: {path}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or bad UTF-8
        raise ParseError(f"{path}: {exc}") from exc


def load_state(path):
    """Load and validate a QuantumState or Ensemble file."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if "matrix" in data:
        return states.state_from_dict(data)
    if "members" in data:
        return states.ensemble_from_dict(data)
    raise InvalidState("format: file has neither 'matrix' nor 'members'")


def _load_density(path) -> states.QuantumState:
    obj = load_state(path)
    if isinstance(obj, states.Ensemble):
        return states.from_ensemble(obj)
    return obj


def _bipartite(path, command) -> states.QuantumState:
    """The state in path, if it has two tensor factors."""
    rho = _load_density(path)
    if len(rho.dims) != 2:
        raise BadParameters(
            f"{command} needs a state with two tensor factors, "
            f"got dims {rho.dims}"
        )
    return rho


def _bipartite_pair(args, command):
    """The --state and --ancilla states, each with two tensor factors."""
    return _bipartite(args.state, command), _bipartite(args.ancilla, command)


def _fitted(m, dim, name):
    """m, if it is a dim x dim matrix."""
    if m.shape != (dim, dim):
        raise BadParameters(
            f"{name} must be {dim}x{dim} to fit the dims, got shape {m.shape}"
        )
    return m


def _load_matrix(path):
    data = _load_json(path)
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    return states.pairs_to_complex(data)


def _load_round(path, rho_s, rho_a) -> protocol.ProtocolRound:
    data = _load_json(path)
    try:
        ua = states.pairs_to_complex(data["u_alice"])
        ub = states.pairs_to_complex(data["u_bob"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    da, db = (rho_s.dims[i] * rho_a.dims[i] for i in (0, 1))
    return protocol.ProtocolRound(
        _fitted(ua, da, "u_alice"), _fitted(ub, db, "u_bob")
    )


def make_report(command, inputs, results, seed):
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "seed": seed,
        "versions": {"artifact": __version__, "config_hash": CONFIG_HASH,
                     "tolerances": TOLERANCES},
    }


def write_report(doc, path=None):
    """Serialize a report with stable ordering; refuses non-finite values."""
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InvalidState(f"finite: {exc}") from exc
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_seed(value):
    if value == "random":
        return int.from_bytes(os.urandom(8), "big")
    try:
        seed = int(value)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise BadParameters(
            f"--seed must be a non-negative integer or 'random', got {value!r}"
        )
    return seed


def _default_workers():
    env = os.environ.get("QSSLAB_WORKERS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise BadParameters(
                f"QSSLAB_WORKERS must be an integer, got {env!r}"
            ) from None
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser():
    p = argparse.ArgumentParser(prog="qsslab")
    p.add_argument("--out", help="write the report here instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)
    add = sub.add_parser

    def add_seed(sp):
        sp.add_argument("--seed", default="0",
                        help="non-negative integer seed, or 'random' "
                        "(default 0)")

    def add_workers(sp):
        sp.add_argument("--workers", type=int, default=None,
                        help="most processes for search restarts; a second "
                        f"one starts only when each gets {search.MIN_CHUNK} "
                        "restarts (default $QSSLAB_WORKERS, else the CPU "
                        "count)")

    sp = add("qss", help="classify a state as quasi-separable")
    sp.add_argument("--state", required=True)
    sp.add_argument("--budget", type=int, default=10000)

    sp = add("concurrence", help="two-qubit concurrence")
    sp.add_argument("--state", required=True)

    sp = add("magic", help="diagonal spin-flip decomposition")
    sp.add_argument("--state", required=True)

    sp = add("ppt", help="partial-transpose separability test")
    sp.add_argument("--state", required=True)

    sp = add("simulate", help="run one protocol round")
    sp.add_argument("--state", required=True)
    sp.add_argument("--ancilla", required=True)
    sp.add_argument("--round", dest="round_file")
    sp.add_argument("--protocol", dest="protocol_name",
                    choices=["identity", "swap", "bilateral-cnot"])

    sp = add("filter", help="apply a local or global filter")
    sp.add_argument("--state", required=True)
    sp.add_argument("--a", dest="a_file")
    sp.add_argument("--b", dest="b_file")
    sp.add_argument("--c", dest="c_file")

    sp = add("reproduce-cnot", help="the bilateral-CNOT counterexample")
    sp.add_argument("--p1", type=float, default=0.5)
    sp.add_argument("--lambda2", type=float, default=0.5)

    sp = add("search", help="optimize a protocol round")
    sp.add_argument("--state", required=True)
    sp.add_argument("--ancilla", required=True)
    sp.add_argument("--restarts", type=int, default=16)
    sp.add_argument("--iters", type=int, default=500)
    add_seed(sp)
    add_workers(sp)

    sp = add("probe", help="QSS verdicts plus protocol search")
    sp.add_argument("--state", required=True)
    sp.add_argument("--ancilla", required=True)
    sp.add_argument("--budget", type=int, default=32000)
    add_seed(sp)
    add_workers(sp)

    sp = add("random-state", help="sample a random density matrix")
    sp.add_argument("--dims", type=int, nargs="+", default=[2, 2])
    sp.add_argument("--rank", type=int, default=None)
    sp.add_argument("--state-out", help="also write a bare loadable state file")
    add_seed(sp)

    return p


def _dispatch(args, seed):
    cmd = args.command
    if cmd in ("search", "probe"):
        workers = _default_workers() if args.workers is None else args.workers
    if cmd == "qss":
        rho = _bipartite(args.state, cmd)
        verdict = qss.classify(rho, budget=args.budget)
        return {"state": args.state, "budget": args.budget}, verdict.to_dict()
    if cmd == "concurrence":
        rho = _load_density(args.state)
        return {"state": args.state}, {
            "concurrence": entanglement.concurrence(rho)
        }
    if cmd == "magic":
        rho = _load_density(args.state)
        md = entanglement.magic_decomposition(rho)
        return {"state": args.state}, {
            "lambda_primes": md.lambda_primes.tolist(),
            "z_states": [states.complex_to_pairs(z) for z in md.z_states],
        }
    if cmd == "ppt":
        rho = _bipartite(args.state, cmd)
        return {"state": args.state}, {
            "ppt_separable": entanglement.ppt_separable(rho),
            "min_pt_eigenvalue": entanglement.min_pt_eigenvalue(
                rho.matrix, rho.dims
            ),
        }
    if cmd == "simulate":
        rho_s, rho_a = _bipartite_pair(args, cmd)
        if args.round_file:
            rnd = _load_round(args.round_file, rho_s, rho_a)
        elif args.protocol_name:
            rnd = protocol.named_round(args.protocol_name, rho_s.dims, rho_a.dims)
        else:
            raise BadParameters("simulate needs --round or --protocol")
        outcomes = protocol.run_round(rho_s, rho_a, rnd)
        inputs = {"state": args.state, "ancilla": args.ancilla,
                  "round": args.round_file or args.protocol_name}
        return inputs, {"outcomes": [o.to_dict() for o in outcomes]}
    if cmd == "filter":
        rho = _bipartite(args.state, cmd)
        if args.c_file:
            c = _fitted(_load_matrix(args.c_file), rho.dim, "--c")
            out, prob = protocol.apply_global_filter(rho, c)
        elif args.a_file and args.b_file:
            da, db = rho.dims
            out, prob = protocol.apply_local_filter(
                rho, _fitted(_load_matrix(args.a_file), da, "--a"),
                _fitted(_load_matrix(args.b_file), db, "--b"),
            )
        else:
            raise BadParameters("filter needs --c or both --a and --b")
        inputs = {"state": args.state, "a": args.a_file, "b": args.b_file,
                  "c": args.c_file}
        return inputs, {"probability": prob,
                        "post_state": states.state_to_dict(out)}
    if cmd == "reproduce-cnot":
        outcomes = protocol.cnot_example(args.p1, args.lambda2)
        return {"p1": args.p1, "lambda2": args.lambda2}, {
            "outcomes": [o.to_dict() for o in outcomes]
        }
    if cmd == "search":
        rho_s, rho_a = _bipartite_pair(args, cmd)
        report = search.optimize_protocol(
            rho_s, rho_a, restarts=args.restarts, iters=args.iters,
            seed=seed, workers=workers,
        )
        inputs = {"state": args.state, "ancilla": args.ancilla,
                  "restarts": args.restarts, "iters": args.iters}
        return inputs, report.to_dict()
    if cmd == "probe":
        rho_s, rho_a = _bipartite_pair(args, cmd)
        result = search.impossibility_probe(
            rho_s, rho_a, budget=args.budget, seed=seed, workers=workers
        )
        inputs = {"state": args.state, "ancilla": args.ancilla,
                  "budget": args.budget}
        return inputs, result.to_dict()
    if cmd == "random-state":
        if min(args.dims) < 1:
            raise BadParameters(f"--dims must be positive, got {args.dims}")
        dim = math.prod(args.dims)  # exact, and before any allocation
        if dim > _MAX_RANDOM_DIM:
            raise BadParameters(
                f"--dims must multiply to at most {_MAX_RANDOM_DIM}, got {dim}"
            )
        if args.rank is not None and not 1 <= args.rank <= dim:
            raise BadParameters(
                f"--rank must be between 1 and the dimension {dim}, "
                f"got {args.rank}"
            )
        rho = states.random_density(args.dims, rank=args.rank, seed=seed)
        payload = states.state_to_dict(rho)
        if args.state_out:
            write_report(payload, args.state_out)
        return {"dims": args.dims, "rank": args.rank}, {"state": payload}
    raise BadParameters(f"unknown command {cmd!r}")


def run_command(argv):
    """Run one subcommand; argv is an argument list or the Namespace that
    build_parser already parsed from one. Returns (exit_code, report)."""
    if isinstance(argv, argparse.Namespace):
        args = argv
    else:
        args = build_parser().parse_args(argv)
    seed = None  # null without --seed, and when --seed itself is bad
    try:
        if "seed" in args:
            seed = _parse_seed(args.seed)
        inputs, results = _dispatch(args, seed)
    except QsslabError as exc:
        code = 2 if isinstance(exc, _INPUT_ERRORS) else 1
        return code, make_report(args.command, {}, {"error": str(exc)}, seed)
    return 0, make_report(args.command, inputs, results, seed)


def main(argv=None):
    # --help and bad flags exit the usual argparse way, before any report
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    code, doc = run_command(args)
    write_report(doc, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
