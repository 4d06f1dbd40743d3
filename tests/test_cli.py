import json

import numpy as np
import numpy.testing as npt
import pytest

from rslimits import _kernels, cli, oracle, priors
from rslimits.potential import ModelSpec

WIGNER_DOC = """
{"d": 1, "couplings": [[[1.0]]], "s": [[0.0]],
 "prior": {"gaussian": {"cov": [[1.0]]}}}
"""

RADEMACHER_DOC = """
{"d": 1, "couplings": [[[1.0]]], "s": [[0.2]],
 "prior": {"discrete": {"atoms": [[1.0], [-1.0]], "weights": [0.5, 0.5]}}}
"""

ROTINV_DOC = """
{"alpha": 1.0, "lambda": 1.0, "prior": {"gaussian": {"cov": [[1.0]]}},
 "tau": {"atoms": [1.0], "weights": [1.0]}}
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_wigner():
    m = cli.parse_model(
        '{"d": 1, "couplings": [[[1.0]]], "s": [[0.0]], '
        '"prior": {"discrete": {"atoms": [[1.0], [-1.0]], "weights": [0.5, 0.5]}}}')
    assert m.d == 1 and m.num_views == 1
    npt.assert_array_equal(m.couplings[0], [[1.0]])
    assert m.prior.kind == priors.DISCRETE


def test_parse_rejects_bad_weights():
    doc = ('{"d": 1, "couplings": [], "s": [[0.0]], '
           '"prior": {"discrete": {"atoms": [[1.0], [-1.0]], "weights": [0.5, 0.4]}}}')
    with pytest.raises(cli.ConfigError, match="prior.discrete.weights"):
        cli.parse_model(doc)


def test_parse_rejects_asymmetric_s():
    doc = ('{"d": 2, "couplings": [], "s": [[1.0, 0.5], [0.0, 1.0]], '
           '"prior": {"gaussian": {"cov": [[1.0, 0.0], [0.0, 1.0]]}}}')
    with pytest.raises(cli.ConfigError, match="'s'"):
        cli.parse_model(doc)


def test_parse_rejects_non_psd_s():
    doc = ('{"d": 1, "couplings": [], "s": [[-1.0]], '
           '"prior": {"gaussian": {"cov": [[1.0]]}}}')
    with pytest.raises(cli.ConfigError, match="positive semidefinite"):
        cli.parse_model(doc)


def test_parse_wishart_embedding_document():
    doc = ('{"d": 2, "couplings": [[[0.0, 1.3], [0.0, 0.0]]], '
           '"s": [[0.0, 0.0], [0.0, 0.0]], '
           '"prior": {"discrete": {"atoms": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], '
           '[-1.0, -1.0]], "weights": [0.25, 0.25, 0.25, 0.25]}}}')
    m = cli.parse_model(doc)
    from rslimits.potential import check_hypothesis
    assert not check_hypothesis(m).holds


def test_model_round_trip():
    for doc in (WIGNER_DOC, RADEMACHER_DOC):
        m = cli.parse_model(doc)
        m2 = cli.parse_model(cli.serialize_model(m))
        assert m2.d == m.d
        npt.assert_array_equal(m2.s, m.s)
        for a, b in zip(m2.couplings, m.couplings):
            npt.assert_array_equal(a, b)
        assert m2.prior.kind == m.prior.kind
        if m.prior.kind == priors.DISCRETE:
            npt.assert_array_equal(m2.prior.atoms, m.prior.atoms)
            npt.assert_array_equal(m2.prior.weights, m.prior.weights)
        else:
            npt.assert_array_equal(m2.prior.cov, m.prior.cov)


def test_parse_rotinv():
    m = cli.parse_rotinv_model(ROTINV_DOC)
    assert m.alpha == 1.0 and m.lam == 1.0
    with pytest.raises(cli.ConfigError, match="alpha"):
        cli.parse_rotinv_model('{"alpha": -1, "lambda": 1, '
                               '"prior": {"gaussian": {"cov": [[1.0]]}}, '
                               '"tau": {"atoms": [1.0], "weights": [1.0]}}')


def test_json_float_format():
    text = cli.to_json_text({"x": 2.0, "y": 0.1, "z": [1.5, float("nan")]})
    assert '"x": 2.0' in text
    assert '"y": 0.10000000000000001' in text
    assert "NaN" in text
    parsed = json.loads(text)
    assert parsed["y"] == 0.1


# ---------------------------------------------------------------------------
# subcommands, exit codes, determinism
# ---------------------------------------------------------------------------

@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(WIGNER_DOC)
    return str(path)


@pytest.fixture
def rademacher_file(tmp_path):
    path = tmp_path / "rade.json"
    path.write_text(RADEMACHER_DOC)
    return str(path)


def test_check_hypothesis_artifact(model_file, tmp_path, capsys):
    out = tmp_path / "hyp.json"
    code = cli.run(["check-hypothesis", "--model", model_file, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc == {"holds": True, "min_eigenvalue": 2.0}


def test_solve_artifact(model_file, tmp_path):
    out = tmp_path / "solve.json"
    assert cli.run(["solve", "--model", model_file, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["f"] - 0.471574) < 1e-6
    assert abs(doc["q_star"][0][0] - 0.5) < 1e-6
    assert doc["converged"] is True


def test_infsup_matches_solve(model_file, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.run(["solve", "--model", model_file, "--out", str(a)]) == 0
    assert cli.run(["infsup", "--model", model_file, "--out", str(b)]) == 0
    fa = json.loads(a.read_text())["f"]
    fb = json.loads(b.read_text())["f"]
    assert abs(fa - fb) <= 1e-6


def test_potential_subcommand(model_file, tmp_path):
    out = tmp_path / "pot.json"
    code = cli.run(["potential", "--model", model_file,
                    "--r", "[[1.0]]", "--q", "[[0.5]]", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["value"] - 0.47157359027997264) < 1e-12


def test_mmse_subcommand(rademacher_file, tmp_path):
    out = tmp_path / "mmse.json"
    assert cli.run(["mmse", "--model", rademacher_file, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["consistency_gap"] <= 1e-4


def test_mmse_refuses_singular_s(model_file):
    assert cli.run(["mmse", "--model", model_file]) == cli.EXIT_INPUT


def test_sweep_csv(rademacher_file, tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.run(["sweep", "--model", rademacher_file, "--path", "coupling:0",
                    "--grid", "0.5:1.0:0.25", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "param,f,q_trace,r_trace,mmse_trace,converged,branch"
    assert len(lines) == 4   # three grid points
    first = lines[1].split(",")
    assert float(first[0]) == 0.5


def test_oracle_subcommand(rademacher_file, tmp_path):
    out = tmp_path / "oracle.json"
    code = cli.run(["oracle", "--model", rademacher_file, "--n", "3",
                    "--mc-samples", "100", "--seed", "4", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["samples"] == 100
    assert doc["nishimori_residual"] <= 6 * doc["nishimori_std_err"]


def test_oracle_enumerates_each_replica_once(rademacher_file, tmp_path, monkeypatch):
    # one kernel call per chunk of replicas, each replica in exactly one
    # chunk: with chunks of 3 (n = 3, 8 configurations) 7 replicas make 3 calls
    columns = []
    kernel = _kernels.config_quadratic_terms

    def counting(*args):
        columns.append(args[2].shape[1])
        return kernel(*args)

    monkeypatch.setattr(_kernels, "config_quadratic_terms", counting)
    monkeypatch.setattr(oracle, "CHUNK_DOUBLES", 3 * 8 * 3)
    assert cli.run(["oracle", "--model", rademacher_file, "--n", "3", "--mc-samples", "7",
                    "--out", str(tmp_path / "once.json")]) == 0
    assert columns == [3, 3, 1]


def test_rotinv_subcommands(tmp_path):
    model = tmp_path / "rot.json"
    model.write_text(ROTINV_DOC)
    out = tmp_path / "rot_out.json"
    assert cli.run(["rotinv-solve", "--model", str(model), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["value"] - 0.2902288194345509) < 1e-6
    spec_out = tmp_path / "spec.json"
    assert cli.run(["rotinv-spectrum", "--factors", "1", "--n", "200",
                    "--alpha", "1.0", "--seed", "3", "--out", str(spec_out)]) == 0
    doc2 = json.loads(spec_out.read_text())
    assert len(doc2["atoms"]) == 200


def test_exit_code_input_error(rademacher_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 1, "couplings": [], "s": [[0.0]], '
                   '"prior": {"discrete": {"atoms": [[1.0]], "weights": [0.9]}}}')
    assert cli.run(["solve", "--model", str(bad)]) == cli.EXIT_INPUT
    assert cli.run(["solve", "--model", str(tmp_path / "missing.json")]) == cli.EXIT_INPUT
    for path, grid in [("coupling:0", "0:1:0"), ("coupling:0", "0:inf:1"),
                       ("s:3,3", "0,1"), ("coupling:5", "0,1"),
                       ("coupling:0", "0:1:1e-320"), ("coupling:0", "0:1e6:1")]:
        assert cli.run(["sweep", "--model", rademacher_file, "--path", path,
                        "--grid", grid]) == cli.EXIT_INPUT
    for flag, value in (("--max-iters", "0"), ("--tol", "inf")):
        assert cli.run(["solve", "--model", rademacher_file, flag, value]) == cli.EXIT_INPUT
    for flags in (["--n", "0"], ["--n", "-1"], ["--n", "2", "--mc-samples", "-5"]):
        assert cli.run(["oracle", "--model", rademacher_file, *flags]) == cli.EXIT_INPUT
    # an explicit zero count is an error, not the default
    for command, flags in (("oracle", ["--n", "3", "--mc-samples", "0"]),
                           ("solve", ["--quad-nodes", "0"]),
                           ("solve", ["--mc-samples", "0"]),
                           ("rotinv-solve", ["--quad-nodes", "0"])):
        capsys.readouterr()
        assert cli.run([command, "--model", rademacher_file, *flags]) == cli.EXIT_INPUT
        assert f"{flags[-2]} must be >= 1, got 0" in capsys.readouterr().err
    # more rows than can be enumerated, whatever the atom count
    for atoms, n in (([[1.0], [0.0], [-1.0]], 20000), ([[1.0]], 64)):
        weights = [1.0 / len(atoms)] * len(atoms)
        doc = {"d": 1, "couplings": [[[1.0]]], "s": [[0.0]],
               "prior": {"discrete": {"atoms": atoms, "weights": weights}}}
        wide = tmp_path / f"atoms{len(atoms)}.json"
        wide.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.run(["oracle", "--model", str(wide), "--n", str(n)]) == cli.EXIT_INPUT
        assert f"enumeration budget exceeded: n = {n} > 63 rows" in capsys.readouterr().err


def test_exit_code_nonconvergence(rademacher_file, tmp_path):
    out = tmp_path / "noconv.json"
    code = cli.run(["solve", "--model", rademacher_file, "--max-iters", "2",
                    "--tol", "1e-14", "--out", str(out)])
    assert code == cli.EXIT_NOCONV
    assert json.loads(out.read_text())["converged"] is False


def test_byte_determinism(rademacher_file, tmp_path):
    blobs = []
    for rep in range(3):
        out = tmp_path / f"det{rep}.json"
        assert cli.run(["solve", "--model", rademacher_file, "--seed", "7",
                        "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_byte_determinism_oracle(rademacher_file, tmp_path):
    blobs = []
    for rep in range(3):
        out = tmp_path / f"odet{rep}.json"
        assert cli.run(["oracle", "--model", rademacher_file, "--n", "2",
                        "--mc-samples", "50", "--seed", "9", "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
