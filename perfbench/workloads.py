"""The three benchmark workloads, their seeded inputs and their checks.

Each workload generates its inputs (a fixed quality set, then a stream
from the run seed), runs one operation per input through qsslab's public
functions (or its CLI), and checks every result. A check that fails makes the operation count as failed; a theorem
violation (a successful purification from a certified QSS x QSS pair)
raises ``Violation`` and aborts the run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qsslab import entanglement, protocol, qss, search, states

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The console-script entry point, spelled out so the checkout's sources
# run without an installed package.
CLI_LAUNCHER = "import sys; from qsslab.cli import main; sys.exit(main())"
PROB_SUM_TOL = 1e-9
CONTROL_PROB_TOL = 1e-6


class Violation(RuntimeError):
    """A certified QSS x QSS pair was purified: the impossibility theorem
    says this cannot happen, so the run stops."""


@dataclass
class Checked:
    """What the checks found for one operation."""

    errors: list = field(default_factory=list)
    verdicts: int = 0  # QssVerdicts the operation produced
    certified: int = 0  # ... that are QSS and pass verify_certificate
    score: float | None = None


def child_env():
    """Environment for child processes: this process's (run.load_library
    pins BLAS to one thread and drops QSSLAB_WORKERS) with the checkout's
    sources first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


# ---------------------------------------------------------------------------
# shared checks


def check_verdict(rho, verdict, out: Checked):
    """A QSS certificate must pass verify_certificate, and a full-rank
    state must be QSS (the uniform reweighting of its eigenbasis is I/d)."""
    out.verdicts += 1
    if verdict.status == qss.QSS:
        ens, weights = verdict.certificate
        if qss.verify_certificate(rho, ens, weights):
            out.certified += 1
        else:
            out.errors.append("QSS certificate fails verify_certificate")
    elif rho.rank() == rho.dim:
        out.errors.append(f"full-rank state classified {verdict.status}")


def verdict_from_dict(d):
    cert = None
    if d["certificate"] is not None:
        cert = (
            states.ensemble_from_dict(d["certificate"]["ensemble"]),
            np.asarray(d["certificate"]["weights"], dtype=float),
        )
    return qss.QssVerdict(d["status"], cert, d["evidence"])


def check_probe(rho_s, rho_a, verdict_s, verdict_a, success, best_round,
                out: Checked):
    """Checks shared by the two probe workloads; a success on a QSS x QSS
    pair raises Violation."""
    check_verdict(rho_s, verdict_s, out)
    check_verdict(rho_a, verdict_a, out)
    if success and verdict_s.status == qss.QSS and verdict_a.status == qss.QSS:
        raise Violation("search purified a QSS x QSS pair")
    total = sum(o.probability for o in protocol.run_round(rho_s, rho_a, best_round))
    if abs(total - 1.0) > PROB_SUM_TOL:
        out.errors.append(f"best-round outcome probabilities sum to {total!r}")


P1 = LAMBDA2 = 0.5


def eq10_source():
    """p1 |Phi+><Phi+| + (1 - p1) |01><01|."""
    phi = np.outer(states.PHI_PLUS, np.conj(states.PHI_PLUS))
    k01 = states.basis_ket((0, 1), (2, 2))
    return states.QuantumState(P1 * phi + (1 - P1) * np.outer(k01, k01.conj()))


def eq11_ancilla():
    """(1 - lambda2) |11><11| + lambda2 |Psi+><Psi+|."""
    psi = np.outer(states.PSI_PLUS, np.conj(states.PSI_PLUS))
    k11 = states.basis_ket((1, 1), (2, 2))
    return states.QuantumState(
        (1 - LAMBDA2) * np.outer(k11, k11.conj()) + LAMBDA2 * psi
    )


CONTROLS = [
    # (name, source, ancilla, expected success probability)
    ("cnot", eq10_source, eq11_ancilla, P1 * LAMBDA2 / 2),
    ("swap",
     lambda: states.pure_state(states.basis_ket((0, 0), (2, 2))),
     lambda: states.pure_state(states.PHI_PLUS),
     1.0),
]


def positive_controls():
    """The search must find the paper's purifying rounds: the bilateral
    CNOT pair (eq. 10/11) at P = p1*lambda2/2 = 0.125, the swap pair at
    P = 1. Returns a list of failure messages."""
    errors = []
    for name, make_s, make_a, expected in CONTROLS:
        rep = search.optimize_protocol(
            make_s(), make_a(), restarts=4, iters=50, seed=0, workers=1
        )
        prob = rep.best_outcome.probability if rep.best_outcome else float("nan")
        if not rep.success or not abs(prob - expected) <= CONTROL_PROB_TOL:
            errors.append(
                f"control {name}: success={rep.success} P={prob!r}, "
                f"expected success at P={expected}"
            )
    return errors


# ---------------------------------------------------------------------------
# workloads

# Seed of the fixed quality set: the first ``fixed_ops`` operations of every
# run, whatever --seed is. score_mean and certified_ratio are computed over
# it, so they are exact, repeatable numbers that move only when the
# library's results change. The operations after it come from --seed.
QUALITY_SEED = 0


class Workload:
    """Inputs are ``make(seed, i, workdir)`` for an input index i: indices
    below ``fixed_ops`` under QUALITY_SEED, the next ``pool`` under the run
    seed."""

    # True when the measured work runs in child processes, so that
    # peak_rss_mb reads theirs and not the benchmark's own.
    in_child = False
    # Least share of each traced operation that the wrapped library
    # functions' self times must cover; None skips that check.
    min_layer_share = None

    def make_inputs(self, seed, workdir):
        return (
            [self.make(QUALITY_SEED, i, workdir) for i in range(self.fixed_ops)]
            + [self.make(seed, i, workdir)
               for i in range(self.fixed_ops, self.fixed_ops + self.pool)]
        )

    def warm_up(self, workdir):
        """One untimed operation on the input past the pool. It comes from
        QUALITY_SEED, so the set-up does the same work whatever the run
        seed is and setup_s measures only its speed."""
        inp = self.make(QUALITY_SEED, self.fixed_ops + self.pool, workdir)
        self.check(inp, self.run(inp))


class Probe2Q(Workload):
    """Criterion-5 shape at reduced size: a random full-rank two-qubit
    source x ancilla pair per operation, both classified, then
    optimize_protocol in-process."""

    name = "probe-2q"
    min_layer_share = 0.99

    def __init__(self, restarts=8, iters=500, fixed_ops=12, pool=64):
        self.restarts = restarts
        self.iters = iters
        self.fixed_ops = fixed_ops
        self.pool = pool

    def describe(self):
        return (f"2x2 full-rank source x 2x2 full-rank ancilla, classify both, "
                f"optimize_protocol {self.restarts} restarts x {self.iters} "
                f"iters, workers=1; quality set {self.fixed_ops} pairs")

    def make(self, seed, i, workdir):
        rng = np.random.default_rng([seed, i])
        rho_s = states.random_density_from_rng((2, 2), rng)
        rho_a = states.random_density_from_rng((2, 2), rng)
        return rho_s, rho_a, int(rng.integers(2**31))

    def warm_up(self, workdir):
        """A short search: a full-size one would double the set-up time."""
        rho_s, rho_a, s = self.make(QUALITY_SEED, self.fixed_ops + self.pool,
                                    workdir)
        qss.classify(rho_s)
        search.optimize_protocol(rho_s, rho_a, restarts=2, iters=60, seed=s)

    def run(self, inp, tracer=None):
        rho_s, rho_a, s = inp
        verdict_s = qss.classify(rho_s)
        verdict_a = qss.classify(rho_a)
        report = search.optimize_protocol(
            rho_s, rho_a, restarts=self.restarts, iters=self.iters, seed=s,
            workers=1,
        )
        return verdict_s, verdict_a, report

    def check(self, inp, result):
        rho_s, rho_a, _ = inp
        verdict_s, verdict_a, report = result
        out = Checked(score=float(report.best_score))
        check_probe(rho_s, rho_a, verdict_s, verdict_a, report.success,
                    report.best_round, out)
        return out


# (dims, rank, copies per cycle). Two-qubit ranks 2-3 take the
# z1-reweighting route (15-25 ms each on a 2-core Xeon VM) and 2x3 ranks 2-3
# spend the whole heuristic budget (75-100 ms for rank 2, 100-150 ms for
# rank 3, at budget 1000); the first group carries about 45% of a cycle's
# time, the heuristic route the rest. Ranks 1 and 4 (two qubits) are the
# sub-millisecond NOT_QSS_CANDIDATE and full-rank routes; 2x3 ranks 4-5
# find a heuristic certificate in 7-17 ms.
CLASSIFY_MIX = [
    ((2, 2), 1, 1),
    ((2, 2), 4, 1),
    ((2, 2), 2, 8),
    ((2, 2), 3, 8),
    ((2, 3), 4, 1),
    ((2, 3), 5, 1),
    ((2, 3), 2, 1),
    ((2, 3), 3, 3),
]


class ClassifyMixed(Workload):
    """One operation classifies a cycle of seeded states, CLASSIFY_MIX's
    kinds in that order, through qss.classify at one budget.

    A single state per operation would put op_ms.p50 on a z1-reweighting
    state, whose latency moves about 1.4 times as far as throughput when
    the host's CPU speed drifts: on a 2-core Xeon VM its spread over ten
    runs reached 0.27-0.31 of the median. Every cycle has the same mix of
    routes, so the median cycle moves with throughput."""

    name = "classify-mixed"

    def __init__(self, budget=1000, cycles=4, pool=64):
        self.budget = budget
        self.kind_of = [(d, r) for d, r, n in CLASSIFY_MIX for _ in range(n)]
        self.fixed_ops = cycles
        self.pool = pool

    def describe(self):
        mix = ", ".join(f"{n}x {d[0]}x{d[1]} rank {r}" for d, r, n in CLASSIFY_MIX)
        return (f"qss.classify budget {self.budget}; one operation is a cycle "
                f"of {len(self.kind_of)} states [{mix}]; quality set "
                f"{self.fixed_ops} cycles")

    def make(self, seed, i, workdir):
        return [
            states.random_density_from_rng(
                dims, np.random.default_rng([seed, i, k]), rank=rank)
            for k, (dims, rank) in enumerate(self.kind_of)
        ]

    def run(self, cycle, tracer=None):
        return [qss.classify(rho, budget=self.budget, seed=0) for rho in cycle]

    def check(self, cycle, verdicts):
        out = Checked()
        scores = []
        for rho, verdict in zip(cycle, verdicts):
            check_verdict(rho, verdict, out)
            if tuple(rho.dims) != (2, 2):
                scores.append(heuristic_score(rho, verdict))
        out.score = float(np.mean(scores))
        return out


def heuristic_score(rho, verdict):
    """Search score of a heuristic-route verdict in [0, 1]: 1 for a
    certificate, else the share of the way from rho's minimum
    partial-transpose eigenvalue to zero that the search covered."""
    if verdict.status == qss.QSS:
        return 1.0
    start = entanglement.min_pt_eigenvalue(rho.matrix, rho.dims)
    best = verdict.evidence.get("best_pt_eigenvalue", start)
    if start >= 0.0:
        return 1.0
    return float(min(1.0, max(0.0, 1.0 - best / start)))


# 2x3 source ranks, one per operation in turn: full rank, quick heuristic
# certificates (4, 5), and budget-exhausting UNKNOWN searches (2, 3).
CLI_SOURCE_RANKS = [6, 4, 2, 6, 5, 3]


class CliProbe(Workload):
    """One ``qsslab probe`` subprocess per operation on generated state
    files: a 2x3 source against a full-rank two-qubit ancilla."""

    name = "cli-probe"
    in_child = True

    def __init__(self, budget=1000, fixed_ops=12, pool=64):
        self.budget = budget
        self.fixed_ops = fixed_ops
        self.pool = pool
        # explicit, never above the CPUs this process may use
        self.workers = min(2, len(os.sched_getaffinity(0)))

    def describe(self):
        return (f"qsslab probe --budget {self.budget} --workers {self.workers} "
                f"({max(1, self.budget // 500)} restarts x 500 iters); 2x3 "
                f"source ranks cycling {CLI_SOURCE_RANKS}, full-rank 2x2 "
                f"ancilla; quality set {self.fixed_ops} pairs")

    def make(self, seed, i, workdir):
        rng = np.random.default_rng([seed, i])
        rank = CLI_SOURCE_RANKS[i % len(CLI_SOURCE_RANKS)]
        inp = CliInput(
            rho_s=states.random_density_from_rng((2, 3), rng, rank=rank),
            rho_a=states.random_density_from_rng((2, 2), rng),
            source=workdir / f"s{i}.json",
            ancilla=workdir / f"a{i}.json",
            report=workdir / f"report{i}.json",
            seed=int(rng.integers(2**31)),
        )
        inp.source.write_text(json.dumps(states.state_to_dict(inp.rho_s)))
        inp.ancilla.write_text(json.dumps(states.state_to_dict(inp.rho_a)))
        return inp

    def cli_args(self, inp):
        return ["--out", str(inp.report), "probe", "--state", str(inp.source),
                "--ancilla", str(inp.ancilla), "--budget", str(self.budget),
                "--seed", str(inp.seed), "--workers", str(self.workers)]

    def run(self, inp, tracer=None):
        """Run the CLI; under a tracer, a traced child records its spans
        to a file that is merged under the current span."""
        cmd = [sys.executable, "-c", CLI_LAUNCHER]
        if tracer is not None:
            spans = inp.report.with_suffix(".spans.json")
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans),
                   repr(time.perf_counter())]
        proc = subprocess.run(cmd + self.cli_args(inp), env=child_env(),
                              capture_output=True, text=True, timeout=170)
        if tracer is not None and proc.returncode == 0:
            tracer.merge(json.loads(spans.read_text()), tracer.current())
        return proc

    def check(self, inp, proc):
        out = Checked()
        if proc.returncode != 0:
            out.errors.append(
                f"qsslab probe exited {proc.returncode}: {proc.stderr[-400:]}"
            )
            return out
        try:
            res = json.loads(inp.report.read_text())["results"]
            verdict_s = verdict_from_dict(res["verdict_source"])
            verdict_a = verdict_from_dict(res["verdict_ancilla"])
            rep = res["report"]
            best_round = protocol.ProtocolRound(
                states.pairs_to_complex(rep["best_round"]["u_alice"]),
                states.pairs_to_complex(rep["best_round"]["u_bob"]),
            )
            success, violation = rep["success"], res["violation"]
            out.score = float(rep["best_score"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out.errors.append(f"report does not parse: {exc!r}")
            return out
        if violation:
            raise Violation(f"qsslab probe reported a violation: {inp.report}")
        check_probe(inp.rho_s, inp.rho_a, verdict_s, verdict_a, success,
                    best_round, out)
        return out


@dataclass(frozen=True)
class CliInput:
    rho_s: states.QuantumState
    rho_a: states.QuantumState
    source: Path
    ancilla: Path
    report: Path
    seed: int


WORKLOADS = {w.name: w for w in (Probe2Q, ClassifyMixed, CliProbe)}
