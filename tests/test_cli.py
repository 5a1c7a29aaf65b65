import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qsslab
from qsslab import cli, states
from qsslab.errors import InvalidState, ParseError


def write_state(tmp_path, name, rho):
    path = tmp_path / name
    path.write_text(json.dumps(states.state_to_dict(rho)))
    return str(path)


def test_load_state_valid(tmp_path):
    path = write_state(tmp_path, "werner.json", states.werner(0.9))
    rho = cli.load_state(path)
    assert isinstance(rho, states.QuantumState)
    assert rho.dims == (2, 2)


def test_load_state_ensemble(tmp_path):
    e = states.spectral_ensemble(states.werner(0.9))
    path = tmp_path / "ens.json"
    path.write_text(json.dumps(states.ensemble_to_dict(e)))
    back = cli.load_state(str(path))
    assert isinstance(back, states.Ensemble)


def test_load_state_bad_trace(tmp_path):
    data = states.state_to_dict(states.werner(0.9))
    data["matrix"] = (0.9 * states.pairs_to_complex(data["matrix"]))
    data["matrix"] = states.complex_to_pairs(data["matrix"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidState, match="trace"):
        cli.load_state(str(path))


def test_load_state_non_hermitian(tmp_path):
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.2
    data = {"dims": [2, 2], "matrix": states.complex_to_pairs(m)}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidState, match="hermitian"):
        cli.load_state(str(path))


def test_load_state_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        cli.load_state(str(path))


def test_reproduce_cnot_command():
    code, doc = cli.run_command(
        ["reproduce-cnot", "--p1", "0.5", "--lambda2", "0.5"]
    )
    assert code == 0
    outcomes = {o["outcome"]: o for o in doc["results"]["outcomes"]}
    assert abs(outcomes["01"]["probability"] - 0.125) <= 1e-9
    assert doc["seed"] == 0
    assert doc["versions"]["config_hash"] == cli.CONFIG_HASH


def test_qss_command(tmp_path):
    path = write_state(tmp_path, "werner09.json", states.werner(0.9))
    code, doc = cli.run_command(["qss", "--state", path])
    assert code == 0
    assert doc["results"]["status"] == "QSS"


def test_concurrence_command(tmp_path):
    path = write_state(tmp_path, "bell.json", states.pure_state(states.PHI_PLUS))
    code, doc = cli.run_command(["concurrence", "--state", path])
    assert code == 0
    assert abs(doc["results"]["concurrence"] - 1.0) <= 1e-9


def test_ppt_command(tmp_path):
    path = write_state(tmp_path, "bell.json", states.pure_state(states.PHI_PLUS))
    code, doc = cli.run_command(["ppt", "--state", path])
    assert code == 0
    assert doc["results"]["ppt_separable"] is False
    assert abs(doc["results"]["min_pt_eigenvalue"] + 0.5) <= 1e-9


def test_magic_command(tmp_path):
    path = write_state(tmp_path, "w.json", states.werner(0.8))
    code, doc = cli.run_command(["magic", "--state", path])
    assert code == 0
    assert len(doc["results"]["lambda_primes"]) == 4


def test_simulate_command(tmp_path):
    s = write_state(tmp_path, "s.json",
                    states.pure_state(states.basis_ket((0, 0), (2, 2))))
    a = write_state(tmp_path, "a.json", states.pure_state(states.PHI_PLUS))
    code, doc = cli.run_command(
        ["simulate", "--state", s, "--ancilla", a, "--protocol", "swap"]
    )
    assert code == 0
    total = sum(o["probability"] for o in doc["results"]["outcomes"])
    assert abs(total - 1.0) <= 1e-9


def test_filter_command(tmp_path):
    path = write_state(tmp_path, "w.json", states.werner(0.7))
    c = tmp_path / "c.json"
    proj = np.outer(states.PHI_PLUS, np.conj(states.PHI_PLUS))
    c.write_text(json.dumps(states.complex_to_pairs(proj)))
    code, doc = cli.run_command(["filter", "--state", path, "--c", str(c)])
    assert code == 0
    assert abs(doc["results"]["probability"] - (0.7 + 0.3 / 4)) <= 1e-9


def test_search_command(tmp_path):
    s = write_state(tmp_path, "s.json",
                    states.pure_state(states.basis_ket((0, 0), (2, 2))))
    a = write_state(tmp_path, "a.json", states.pure_state(states.PHI_PLUS))
    code, doc = cli.run_command(
        ["search", "--state", s, "--ancilla", a, "--restarts", "3",
         "--iters", "20", "--workers", "1"]
    )
    assert code == 0
    assert doc["results"]["success"] is True


def test_probe_command(tmp_path):
    path = write_state(tmp_path, "w.json", states.werner(0.9))
    code, doc = cli.run_command(
        ["probe", "--state", path, "--ancilla", path, "--budget", "1000",
         "--workers", "1"]
    )
    assert code == 0
    assert doc["results"]["violation"] is False


def test_random_state_command(tmp_path):
    out = tmp_path / "state.json"
    code, doc = cli.run_command(
        ["random-state", "--dims", "2", "2", "--rank", "3", "--seed", "5",
         "--state-out", str(out)]
    )
    assert code == 0
    rho = cli.load_state(str(out))
    assert rho.rank() == 3
    # deterministic for a fixed seed
    code2, doc2 = cli.run_command(
        ["random-state", "--dims", "2", "2", "--rank", "3", "--seed", "5"]
    )
    assert doc2["results"]["state"] == doc["results"]["state"]


def test_invalid_state_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [2, 2], "matrix": [[[1.0, 0.0]]]}))
    code, doc = cli.run_command(["concurrence", "--state", str(path)])
    assert code == 2
    assert "error" in doc["results"]


def test_write_report_deterministic(tmp_path):
    _, doc = cli.run_command(["reproduce-cnot", "--p1", "0.5", "--lambda2", "0.5"])
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    cli.write_report(doc, str(p1))
    cli.write_report(doc, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")
    # round trip through the encoding
    assert json.loads(p1.read_text()) == doc


def test_write_report_refuses_nan():
    doc = {"command": "x", "value": float("nan")}
    with pytest.raises(InvalidState, match="finite"):
        cli.write_report(doc, None)


def test_main_writes_to_out(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(
        ["--out", str(out), "reproduce-cnot", "--p1", "0.5", "--lambda2", "0.5"]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "reproduce-cnot"


def test_bad_seed_exits_2():
    code, doc = cli.run_command(["reproduce-cnot", "--seed", "abc"])
    assert code == 2
    assert "--seed" in doc["results"]["error"]
    assert doc["seed"] is None


def test_main_bad_seed_exits_2(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["--out", str(out), "reproduce-cnot", "--seed", "abc"]) == 2
    assert "error" in json.loads(out.read_text())["results"]


def test_bad_workers_exit_2(tmp_path, monkeypatch):
    s = write_state(tmp_path, "s.json", states.werner(0.9))
    args = ["search", "--state", s, "--ancilla", s, "--restarts", "2",
            "--iters", "5"]
    code, doc = cli.run_command(args + ["--workers", "0"])
    assert code == 2
    assert "workers" in doc["results"]["error"]
    monkeypatch.setenv("QSSLAB_WORKERS", "two")
    code, doc = cli.run_command(args)
    assert code == 2
    assert "QSSLAB_WORKERS" in doc["results"]["error"]
    monkeypatch.setenv("QSSLAB_WORKERS", "1")
    code, doc = cli.run_command(args)
    assert code == 0


def test_module_entry_point_runs_without_runpy_warning():
    env = dict(os.environ, PYTHONPATH=str(Path(qsslab.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qsslab.cli",
         "reproduce-cnot"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "reproduce-cnot"


def test_qss_command_on_a_pure_product_state(tmp_path):
    # eigensolver noise in its zero eigenvalues must not fail its certificate
    rng = np.random.default_rng([21, 14])
    a = states.random_pure_from_rng((2,), rng)
    b = states.random_pure_from_rng((2,), rng)
    path = write_state(tmp_path, "product.json", states.pure_state(np.kron(a, b)))
    out = tmp_path / "report.json"
    assert cli.main(["--out", str(out), "qss", "--state", path]) == 0
    assert json.loads(out.read_text())["results"]["status"] == "QSS"


def _write_bytes(data):
    """A fresh file holding data; returns the path and its directory."""
    tmp = tempfile.TemporaryDirectory()
    path = os.path.join(tmp.name, "input.json")
    with open(path, "wb") as fh:
        fh.write(data)
    return path, tmp


_SEEDS = st.integers(0, 2**32 - 1)
_DIMS = st.sampled_from([(2,), (2, 2), (2, 3), (3, 2)])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=_SEEDS, dims=_DIMS, rank=st.integers(1, 6),
       as_ensemble=st.booleans())
def test_load_state_round_trips(seed, dims, rank, as_ensemble):
    rng = np.random.default_rng(seed)
    rho = states.random_density_from_rng(
        dims, rng, rank=min(rank, int(np.prod(dims)))
    )
    obj = states.spectral_ensemble(rho) if as_ensemble else rho
    to_dict = states.ensemble_to_dict if as_ensemble else states.state_to_dict
    path, tmp = _write_bytes(json.dumps(to_dict(obj)).encode())
    with tmp:
        back = cli.load_state(path)
    assert type(back) is type(obj)
    assert back.dims == obj.dims
    if as_ensemble:
        assert len(back) == len(obj)
        for (w, v), (w0, v0) in zip(back.members, obj.members):
            assert w == w0 and np.array_equal(v, v0)
    else:
        assert np.array_equal(back.matrix, rho.matrix)


# JSON values too small to spell a unit vector of 4 or more entries, let
# alone a state, so no bipartite document they are put in can be valid
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["dims", "matrix", "members", "weight",
                                       "vector", "x"]), inner, max_size=3),
    max_leaves=6,
)


def _positive_int_list(value):
    return isinstance(value, list) and bool(value) and all(
        isinstance(d, (int, float)) and d == d and abs(d) != float("inf")
        and int(d) == d >= 1
        for d in value
    )


@st.composite
def _malformed_file(draw):
    """Bytes of a file that no loader may accept."""
    dims = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    rho = states.random_density(dims, seed=draw(_SEEDS))
    ens = states.spectral_ensemble(rho)
    valid = states.state_to_dict(rho)
    kind = draw(st.sampled_from(
        ["truncated", "bad-utf8", "not-an-object", "no-known-key", "dims",
         "matrix", "members", "weight", "vector"]
    ))
    text = json.dumps(valid)
    if kind == "truncated":
        return text[: draw(st.integers(0, len(text) - 1))].encode()
    if kind == "bad-utf8":
        at = draw(st.integers(0, len(text)))
        return text[:at].encode() + b"\xff" + text[at:].encode()
    if kind == "not-an-object":
        return json.dumps(draw(_JUNK.filter(
            lambda v: not isinstance(v, dict)))).encode()
    if kind == "no-known-key":
        junk = draw(st.dictionaries(st.text(max_size=6), _JUNK, max_size=3))
        assume("matrix" not in junk and "members" not in junk)
        return json.dumps(junk).encode()
    junk = draw(_JUNK)
    if kind in ("dims", "matrix"):
        if kind == "dims":
            assume(not _positive_int_list(junk))
        valid[kind] = junk
        return json.dumps(valid).encode()
    doc = states.ensemble_to_dict(ens)
    if kind == "members":
        doc["members"] = junk
    else:
        member = doc["members"][draw(st.integers(0, len(ens) - 1))]
        assume(junk != member[kind])
        member[kind] = junk
    return json.dumps(doc).encode()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=_malformed_file())
def test_malformed_state_files_exit_2(data):
    path, tmp = _write_bytes(data)
    with tmp:
        for command in ("ppt", "concurrence"):
            code, doc = cli.run_command([command, "--state", path])
            assert code == 2, doc
            assert "error" in doc["results"]
