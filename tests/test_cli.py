import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from rslimits import _kernels, cli, oracle, priors, rotinv
from rslimits.potential import ModelSpec
from rslimits.quadrature import MAX_NODES

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
    # chunk: with chunks of 3 (n = 3, 8 configurations, 2 * 8 + 3 * 3 doubles
    # per replica) 7 replicas make 3 calls
    columns = []
    kernel = _kernels.config_quadratic_terms

    def counting(*args):
        columns.append(len(args[4]))
        return kernel(*args)

    monkeypatch.setattr(_kernels, "config_quadratic_terms", counting)
    monkeypatch.setattr(oracle, "CHUNK_DOUBLES", 3 * (2 * 8 + 3 * 3))
    assert cli.run(["oracle", "--model", rademacher_file, "--n", "3", "--mc-samples", "7",
                    "--out", str(tmp_path / "once.json")]) == 0
    assert columns == [3, 3, 1]


def test_cached_parser_matches_fresh_parser(rademacher_file, tmp_path, monkeypatch):
    # consecutive runs of different subcommands through the one cached parser
    # write what runs through a freshly built parser write: an option set in
    # one run (--seed, --tol, --quad-nodes) does not reach the next
    runs = [["oracle", "--model", rademacher_file, "--n", "3", "--mc-samples", "40",
             "--seed", "9"],
            ["solve", "--model", rademacher_file, "--tol", "1e-6", "--quad-nodes", "21"],
            ["oracle", "--model", rademacher_file, "--n", "2", "--mc-samples", "40"],
            ["solve", "--model", rademacher_file],
            ["rotinv-spectrum", "--factors", "1", "--n", "20", "--alpha", "1.5", "--seed", "2"],
            ["rotinv-spectrum", "--factors", "1", "--n", "20", "--alpha", "1.5"]]

    def artifacts():
        blobs = []
        for i, argv in enumerate(runs):
            out = tmp_path / f"run{i}.out"
            assert cli.run(argv + ["--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        return blobs

    cli._parser.cache_clear()
    cached = artifacts()
    assert cli._parser.cache_info().misses == 1
    for argv in runs:
        assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert artifacts() == cached
    assert cached[0] != cached[2] and cached[4] != cached[5]


def test_rotinv_non_finite_scalars_refused(tmp_path, capsys):
    # json reads NaN and +-Infinity literals, and true as a bool (an int in
    # Python): each is refused by name, exit 1
    for key in ("alpha", "lambda"):
        for literal in ("NaN", "Infinity", "-Infinity", "true"):
            doc = json.loads(ROTINV_DOC)
            text = json.dumps(doc).replace(f'"{key}": 1.0', f'"{key}": {literal}')
            assert literal in text
            model = tmp_path / "rot_bad.json"
            model.write_text(text)
            assert cli.run(["rotinv-solve", "--model", str(model)]) == cli.EXIT_INPUT
            assert f"field '{key}' must be a finite positive number" in capsys.readouterr().err


def test_rotinv_prior_error_names_prior(tmp_path, capsys):
    # a 2-d prior is the model's objection, not the spectral law's
    doc = json.loads(ROTINV_DOC)
    doc["prior"] = {"gaussian": {"cov": [[1.0, 0.0], [0.0, 1.0]]}}
    model = tmp_path / "rot_2d.json"
    model.write_text(json.dumps(doc))
    assert cli.run(["rotinv-solve", "--model", str(model)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "field 'prior': the rotationally invariant module is scalar" in err
    assert "'tau'" not in err


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
    # JSON true is a bool, an int in Python: not a dimension
    capsys.readouterr()
    bad.write_text(RADEMACHER_DOC.replace('"d": 1', '"d": true'))
    assert cli.run(["solve", "--model", str(bad)]) == cli.EXIT_INPUT
    assert "field 'd' must be a positive integer" in capsys.readouterr().err
    for path, grid in [("coupling:0", "0:1:0"), ("coupling:0", "0:inf:1"),
                       ("s:3,3", "0,1"), ("coupling:5", "0,1"),
                       ("coupling:0", "0:1:1e-320"), ("coupling:0", "0:1e6:1"),
                       ("coupling:0", "1,nan"), ("coupling:0", "1,inf"), ("coupling:0", ",")]:
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
    # rows and atoms the oracle enumerates: n d <= 500 whatever the atom
    # count, K^n configurations and the K^2 atom-pair table within DEFAULT_BUDGET
    def atoms_file(count):
        doc = {"d": 1, "couplings": [[[1.0]]], "s": [[0.0]],
               "prior": {"discrete": {"atoms": [[float(k)] for k in range(count)],
                                      "weights": [1.0 / count] * count}}}
        path = tmp_path / f"atoms{count}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    for count, n, message in ((3, 20000, "n d = 20000, (n d)^2 > 250000"),
                              (1, 501, "n d = 501, (n d)^2 > 250000"),
                              (448, 1, f"K^max(n, 2) = 448^2 > {oracle.DEFAULT_BUDGET}")):
        capsys.readouterr()
        assert cli.run(["oracle", "--model", atoms_file(count), "--n", str(n)]) == cli.EXIT_INPUT
        assert f"enumeration budget exceeded: {message}" in capsys.readouterr().err
    for count, n in ((1, 64), (1, 500), (447, 1)):
        out = tmp_path / "served.json"
        assert cli.run(["oracle", "--model", atoms_file(count), "--n", str(n),
                        "--mc-samples", "2", "--out", str(out)]) == 0
        if count == 1:    # the true signal is the one configuration
            assert json.loads(out.read_text())["mi_per_row"] == 0.0
    # quadrature larger than MAX_NODES at the model's d: refused before any
    # node is built (a 63^4 grid is 1.6e7 nodes, 1e9 draws at d = 4 are 32 GB),
    # for the sweep too, which otherwise records a failed point and goes on
    d4 = tmp_path / "d4.json"
    d4.write_text(json.dumps({"d": 4, "couplings": [np.eye(4).tolist()], "s": np.zeros((4, 4)).tolist(),
                              "prior": {"discrete": {"atoms": np.eye(4).tolist(), "weights": [0.25] * 4}}}))
    for command, flags, kind, count in (
            ("solve", ["--quad-nodes", "63"], "gauss-hermite", 63 ** 4),
            ("solve", ["--mc-samples", "1000000000"], "monte-carlo", 10 ** 9),
            ("sweep", ["--quad-nodes", "63", "--path", "coupling:0", "--grid", "0,1"], "gauss-hermite", 63 ** 4)):
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert cli.run([command, "--model", str(d4), *flags]) == cli.EXIT_INPUT
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (f"quadrature too large: {kind} with {count} nodes at d = 4 > {MAX_NODES}"
                in capsys.readouterr().err)
        assert peak < 1_000_000
    # numpy's Gauss-Hermite rule breaks down past MAX_GH_NODES_PER_DIM nodes
    capsys.readouterr()
    assert cli.run(["solve", "--model", rademacher_file, "--quad-nodes", "400"]) == cli.EXIT_INPUT
    assert "nodes_per_dim <= 300, got 400" in capsys.readouterr().err


def test_matrix_fields_refuse_non_numbers(rademacher_file, tmp_path, capsys):
    # numpy reads JSON true as 1.0 and a string as its number, also inside a
    # list of numbers: each is refused by field name at any depth, exit 1
    rot = json.loads(ROTINV_DOC)
    cases = []
    for field, value in (("couplings", [[[True]]]), ("s", [[False]]), ("s", [[0.2, True]]),
                         ("couplings", [[[1.0]], [[False]]]), ("s", [["0.2"]]),
                         ("s", [[10 ** 400]])):
        doc = json.loads(RADEMACHER_DOC)
        doc[field] = value
        cases.append((doc, field if field == "s" else f"{field}[{len(value) - 1}]", "solve"))
    for atoms in ([[True], [-1.0]], [[1.0], [None]]):
        doc = json.loads(RADEMACHER_DOC)
        doc["prior"]["discrete"]["atoms"] = atoms
        cases.append((doc, "prior.discrete.atoms", "solve"))
    rot["tau"]["weights"] = [True]
    cases.append((rot, "tau.weights", "rotinv-solve"))
    for i, (doc, field, command) in enumerate(cases):
        model = tmp_path / f"bad{i}.json"
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.run([command, "--model", str(model)]) == cli.EXIT_INPUT, doc
        assert f"error: field '{field}'" in capsys.readouterr().err, doc
    for flag, value in (("--r", "[[true]]"), ("--q", "[[false]]"), ("--r", "[[1.0, true]]")):
        argv = ["potential", "--model", rademacher_file, "--r", "[[1.0]]", "--q", "[[0.5]]"]
        argv[argv.index(flag) + 1] = value
        capsys.readouterr()
        assert cli.run(argv) == cli.EXIT_INPUT
        assert f"error: field '{flag}' holds" in capsys.readouterr().err


def test_oracle_refuses_negative_seed(rademacher_file, capsys):
    # refused before the seed is split into entropy words, which would not end
    for seed in ("-1", str(-2 ** 70)):
        capsys.readouterr()
        assert cli.run(["oracle", "--model", rademacher_file, "--n", "3", "--mc-samples", "5",
                        "--seed", seed]) == cli.EXIT_INPUT
        assert "error: expected non-negative integer" in capsys.readouterr().err


def test_oracle_refuses_replica_count_before_allocating(rademacher_file, capsys):
    # 1e12 replicas would be an 8 TB result array, 1e8 GBs and hours of draws
    for count in (oracle.MAX_REPLICAS + 1, 10 ** 8, 10 ** 12):
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert cli.run(["oracle", "--model", rademacher_file, "--n", "3",
                            "--mc-samples", str(count)]) == cli.EXIT_INPUT
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (f"replica budget exceeded: {count} data samples > {oracle.MAX_REPLICAS}"
                in capsys.readouterr().err)
        assert peak < 1_000_000


def test_oracle_refuses_n_d_before_allocating(tmp_path, capsys):
    # one atom: M = 1 passes the configuration budget at any n, but one
    # replica's Q would hold (63 * 20)^2 doubles, 12.7 MB
    d = 20
    model = tmp_path / "one_atom_d20.json"
    model.write_text(json.dumps({"d": d, "couplings": [(0.5 * np.eye(d)).tolist()],
                                 "s": (0.1 * np.eye(d)).tolist(),
                                 "prior": {"discrete": {"atoms": [[1.0] * d],
                                                        "weights": [1.0]}}}))
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert cli.run(["oracle", "--model", str(model), "--n", "63",
                        "--mc-samples", "2"]) == cli.EXIT_INPUT
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ("enumeration budget exceeded: n d = 1260, (n d)^2 > 250000"
            in capsys.readouterr().err)
    assert peak < 1_000_000


def test_documents_refused_by_field(tmp_path, capsys):
    # each malformed model or rotinv document is refused by name, exit 1
    def model_doc(**fields):
        doc = json.loads(RADEMACHER_DOC)
        doc.update(fields)
        return json.dumps(doc)

    no_s = json.loads(RADEMACHER_DOC)
    del no_s["s"]
    negative_tau = json.loads(ROTINV_DOC)
    negative_tau["tau"] = {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]}
    discrete = json.loads(RADEMACHER_DOC)["prior"]["discrete"]
    cases = [
        ("solve", "{", "invalid JSON"),
        ("rotinv-solve", "{", "invalid JSON"),
        ("solve", json.dumps(no_s), "missing field 's'"),
        ("solve", model_doc(couplings={"0": [[1.0]]}),
         "field 'couplings' must be a list of d x d matrices"),
        ("solve", model_doc(s=[[float("nan")]]), "field 's' contains non-finite entries"),
        ("solve", model_doc(s=[[0.2, 0.0]]), "field 's' must have shape (1, 1), got (1, 2)"),
        ("solve", model_doc(prior={}),
         "field 'prior' must hold exactly one of 'discrete'/'gaussian'"),
        ("solve", model_doc(prior={"discrete": discrete, "gaussian": {"cov": [[1.0]]}}),
         "field 'prior' must hold exactly one of 'discrete'/'gaussian'"),
        ("solve", model_doc(prior={"laplace": {"scale": 1.0}}),
         "field 'prior' must hold 'discrete' or 'gaussian'"),
        ("solve", model_doc(prior={"gaussian": {"cov": [[-1.0]]}}),
         "field 'prior.gaussian.cov': gaussian prior covariance is not positive semidefinite"),
        ("rotinv-solve", json.dumps(negative_tau),
         "field 'tau': spectral atoms must be finite and nonnegative"),
        ("solve", model_doc(d=2, couplings=[], s=np.zeros((2, 2)).tolist()),
         "field 'prior': dimension 1 != d = 2"),
    ]
    for command, text, message in cases:
        model = tmp_path / "doc.json"
        model.write_text(text)
        capsys.readouterr()
        assert cli.run([command, "--model", str(model)]) == cli.EXIT_INPUT, text
        assert message in capsys.readouterr().err, text


def test_sweep_path_and_grid_refused(rademacher_file, capsys):
    for path, grid, message in (
            ("views:0", "0,1", "--path must be 'coupling:IDX' or 's:K,L', got 'views:0'"),
            ("coupling:0", "0:1", "--grid range form is START:STOP:STEP"),
            ("coupling:0", "1:0:1", "--grid range is empty")):
        capsys.readouterr()
        assert cli.run(["sweep", "--model", rademacher_file, "--path", path,
                        "--grid", grid]) == cli.EXIT_INPUT
        assert message in capsys.readouterr().err


def test_runtime_error_in_a_command_exits_nonconvergence(rademacher_file, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("no fixed point found")

    monkeypatch.setattr(cli.solver, "solve_f", fail)
    capsys.readouterr()
    assert cli.run(["solve", "--model", rademacher_file]) == cli.EXIT_NOCONV
    assert "error: no fixed point found" in capsys.readouterr().err


def test_usage_errors_exit_input(rademacher_file, capsys):
    # argparse's own exit code 2 is the non-convergence code: a malformed
    # value, a missing required flag or an unknown flag is an input error
    for argv, message in ((["solve", "--model", rademacher_file, "--tol", "abc"],
                           "argument --tol: invalid float value: 'abc'"),
                          (["oracle", "--model", rademacher_file],
                           "the following arguments are required: --n"),
                          (["solve", "--model", rademacher_file, "--bogus", "1"],
                           "unrecognized arguments: --bogus 1"),
                          (["solve"], "the following arguments are required: --model"),
                          (["no-such-command"], "invalid choice: 'no-such-command'")):
        capsys.readouterr()
        assert cli.run(argv) == cli.EXIT_INPUT
        assert message in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.run(["solve", "--help"])
    assert exc.value.code == 0


def test_flags_registered_only_where_read(rademacher_file, tmp_path):
    # a flag a command does not read is refused, not silently ignored
    rot = tmp_path / "rot.json"
    rot.write_text(ROTINV_DOC)
    for argv in (["rotinv-solve", "--model", str(rot), "--tol", "1e-3"],
                 ["oracle", "--model", rademacher_file, "--n", "2", "--damping", "0.3"],
                 ["oracle", "--model", rademacher_file, "--n", "2", "--quad-nodes", "5"],
                 ["potential", "--model", rademacher_file, "--r", "[[1.0]]", "--q", "[[0.5]]",
                  "--max-iters", "5"],
                 ["check-hypothesis", "--model", rademacher_file, "--seed", "1"],
                 ["check-hypothesis", "--model", rademacher_file, "--quad-nodes", "5"],
                 ["rotinv-spectrum", "--factors", "0", "--n", "5", "--alpha", "1.0",
                  "--mc-samples", "5"],
                 ["rotinv-spectrum", "--factors", "0", "--n", "5", "--alpha", "1.0",
                  "--model", str(rot)]):
        assert cli.run(argv) == cli.EXIT_INPUT, argv
    parser = cli.build_parser()
    for argv in (["solve", "--model", "m", "--damping", "0.3", "--tol", "1e-9",
                  "--max-iters", "9", "--quad-nodes", "5", "--mc-samples", "5", "--seed", "1"],
                 ["rotinv-solve", "--model", "m", "--quad-nodes", "5", "--seed", "1"],
                 ["oracle", "--model", "m", "--n", "2", "--mc-samples", "5", "--seed", "1"]):
        parser.parse_args(argv)


def test_rotinv_solve_artifact_matches_library_defaults(tmp_path):
    tau3 = ('{"alpha": 1.0, "lambda": 1.0, '
            '"prior": {"discrete": {"atoms": [[1.0], [-1.0]], "weights": [0.5, 0.5]}}, '
            '"tau": {"atoms": [0.2, 1.0, 3.0], "weights": [0.3, 0.4, 0.3]}}')
    for text in (ROTINV_DOC, tau3):
        model = tmp_path / "rot.json"
        model.write_text(text)
        out = tmp_path / "rot_out.json"
        assert cli.run(["rotinv-solve", "--model", str(model), "--out", str(out)]) == 0
        sol = rotinv.solve_rotinv(cli.parse_rotinv_model(text))
        # 17 significant digits round-trip, so the comparison is exact
        assert json.loads(out.read_text()) == {
            "value": sol.value, "e_star": sol.e_star, "r_star": sol.r_star,
            "fixed_points": [{"e": p.e, "r": p.r, "residual": p.residual,
                              "converged": p.converged, "stable": p.stable}
                             for p in sol.fixed_points]}


def test_rotinv_spectrum_refuses_alpha_before_allocating(capsys):
    # alpha = 10 at n = 2000 would build 20000 x 20000 factors (3.2 GB each)
    for alpha, n, message in (("-1", "100", "alpha must be in (0, 2000], got -1.0"),
                              ("inf", "100", "alpha must be in (0, 2000], got inf"),
                              ("nan", "100", "alpha must be in (0, 2000], got nan"),
                              ("10", "2000", "m = round(alpha n) = 20000 exceeds 2000")):
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert cli.run(["rotinv-spectrum", "--factors", "1", "--n", n,
                            "--alpha", alpha]) == cli.EXIT_INPUT
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert message in capsys.readouterr().err
        assert peak < 1_000_000


def test_exit_code_nonconvergence(rademacher_file, tmp_path):
    out = tmp_path / "noconv.json"
    code = cli.run(["solve", "--model", rademacher_file, "--max-iters", "2",
                    "--tol", "1e-14", "--out", str(out)])
    assert code == cli.EXIT_NOCONV
    assert json.loads(out.read_text())["converged"] is False


def test_solve_converges_at_lambda_c(tmp_path):
    model = tmp_path / "critical.json"
    model.write_text(json.dumps({"d": 1, "couplings": [[[0.5 ** 0.5]]], "s": [[0.0]],
                                 "prior": {"discrete": {"atoms": [[1.0], [-1.0]],
                                                        "weights": [0.5, 0.5]}}}))
    out = tmp_path / "critical_out.json"
    assert cli.run(["solve", "--model", str(model), "--out", str(out)]) == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["converged"] is True and doc["q_star"][0][0] <= 1e-5


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


def _loaded_by_cli_import(package):
    """Modules of ``package`` loaded by ``import rslimits.cli`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, rslimits.cli; "
            f"print(sorted(m for m in sys.modules if m == {package!r} "
            f"or m.startswith({package + '.'!r})))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency: importing the CLI (and with it
    # every module of the package) must not pull in any part of scipy
    assert _loaded_by_cli_import("scipy") == "[]"


def test_cli_import_loads_no_numpy_polynomial():
    # rotinv.scalar_roots reaches numpy.polynomial when it runs: a
    # module-level import would load it at every CLI start
    assert _loaded_by_cli_import("numpy.polynomial") == "[]"


def test_cli_import_loads_no_numpy_random():
    # generators are built when a command draws, not at import: a
    # module-level Generator would load numpy.random at every CLI start
    assert _loaded_by_cli_import("numpy.random") == "[]"
