"""End-to-end command line checks: exact bytes, exit codes, file formats."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stratadyn import cli, hassett, hurwitz, trees
from tests.test_hurwitz import d3_five_datum, d4_total_datum

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
# the command runs from this checkout whether or not the package is installed
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
))


def run_cli(*argv, check=0):
    r = subprocess.run(
        [sys.executable, "-m", "stratadyn.cli", *argv],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert r.returncode == check, (r.returncode, r.stdout, r.stderr)
    return r


def test_homology_dims_exact_bytes():
    r = run_cli("homology", "dims", "--n", "6")
    assert r.stdout == '{"k_dims": {"0": 1, "1": 16, "2": 16, "3": 1}}\n'


def test_homology_dims_repeat_identical():
    a = run_cli("homology", "dims", "--n", "5").stdout
    b = run_cli("homology", "dims", "--n", "5").stdout
    assert a == b == '{"k_dims": {"0": 1, "1": 5, "2": 1}}\n'


def test_hurwitz_count_fig1():
    r = run_cli("hurwitz", "count", "--data", str(DATA / "fig1.json"))
    assert r.stdout == '{"deg_nu": 1, "deg_pi_B": 4}\n'


def test_hurwitz_count_d2():
    r = run_cli("hurwitz", "count", "--data", str(DATA / "d2.json"))
    assert r.stdout == '{"deg_nu": 2, "deg_pi_B": 1}\n'


def test_dyndeg_k0_exact_bytes():
    r = run_cli("dyndeg", "--data", str(DATA / "fig1.json"), "--k", "0")
    assert r.stdout == '{"method": "exact_roots", "theta": 4}\n'


def test_dyndeg_k1():
    r = run_cli("dyndeg", "--data", str(DATA / "fig1.json"), "--k", "1")
    assert json.loads(r.stdout) == {"method": "exact_roots", "theta": 1}


def test_dyndeg_degree_one_identity():
    for k in ("0", "1"):
        r = run_cli("dyndeg", "--data", str(DATA / "d1_self.json"), "--k", k)
        assert json.loads(r.stdout) == {"method": "exact_roots", "theta": 1}


def test_dyndeg_six_mark_self_map_exact_bytes():
    # data/d2_self6.json: the seed-1 degree-2 six-mark self-map of the
    # benchmark's generator; theta_0 = 2^3 and theta_1 an irrational root
    out = {}
    for k in ("0", "1"):
        out[k] = run_cli("dyndeg", "--data", str(DATA / "d2_self6.json"), "--k", k).stdout
    assert out == {
        "0": '{"method": "exact_roots", "theta": 8}\n',
        "1": '{"method": "exact_roots", "theta": 4.551177739724149}\n',
    }


def test_strata_output_roundtrips():
    r = run_cli("strata", "--n", "5", "--k", "1")
    obj = json.loads(r.stdout)
    assert obj["n"] == 5 and obj["k"] == 1 and obj["count"] == 10
    got = [trees.canonical_form(trees.MarkedTree.from_json_dict(o)) for o in obj["strata"]]
    assert got == list(trees.enumerate_strata(5, 1))


def test_filtration_dims_bytes():
    r = run_cli("filtration", "dims", "--n", "6", "--k", "2")
    assert r.stdout == '{"1+1": 10, "2": 16, "<(k)": 10, "omega": 6}\n'


def test_hassett_kernel_dagger():
    r = run_cli("hassett", "kernel", "--n", "6", "--k", "2", "--weights", "dagger")
    assert json.loads(r.stdout) == {"kernel_dim": 10, "equals_lambda_less": True}


def test_hassett_kernel_weight_file(tmp_path):
    wf = tmp_path / "weights.json"
    wf.write_text(json.dumps([str(x) for x in hassett.epsilon_dagger(6)]))
    r = run_cli("hassett", "kernel", "--n", "6", "--k", "2", "--weights", str(wf))
    assert json.loads(r.stdout) == {"kernel_dim": 10, "equals_lambda_less": True}


def test_weights_must_be_fraction_strings_or_integers(tmp_path):
    # the first two once exited 0, reading an object's keys as the weights
    # and a float as its binary fraction; true was read as weight 1
    wf = tmp_path / "weights.json"
    dagger = ["40001/100000"] * 5
    for weights, error in (
        ({w: 0 for w in ("40001/100000", "40001/100001", "40001/100002", "40001/100003",
                         "40001/100004")},
         'the weights must be an array, got {"40001/100000": 0, "40001/100001": 0, '
         '"40001/100002": 0, "40001/100003": 0, "40001/100004": 0}'),
        (dagger[:4] + [0.400002], "a weight must be a fraction string or an integer, got 0.400002"),
        ([True] + dagger[1:], "a weight must be a fraction string or an integer, got true"),
        (dagger[:4] + ["1/0"], 'a weight must be a fraction string or an integer, got "1/0"'),
    ):
        wf.write_text(json.dumps(weights))
        r = run_cli("hassett", "kernel", "--n", "5", "--k", "1", "--weights", str(wf), check=2)
        assert json.loads(r.stdout) == {"error": error}, weights
        assert r.stderr.strip()
    # JSON integers and fraction strings are read
    wf.write_text(json.dumps(dagger))
    r = run_cli("hassett", "kernel", "--n", "5", "--k", "1", "--weights", str(wf))
    assert json.loads(r.stdout) == {"equals_lambda_less": True, "kernel_dim": 0}


def test_matrix_entries_must_be_fraction_strings_or_integers(tmp_path):
    # the first once printed an omega block holding 0.1's binary fraction,
    # and the second was read as a 5 x 1 matrix of digits
    mf = tmp_path / "matrix.json"
    ident = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    for matrix, error in (
        ([[True, 0.1, 0, 0, 0]] + ident[1:],
         "a matrix entry must be a fraction string or an integer, got true"),
        ({"matrix": "12345"}, 'the matrix must be an array, got "12345"'),
        ({"self_matrix": ["10000"] + ident[1:]}, 'a matrix row must be an array, got "10000"'),
        ([["1", "1/2", "0", "0", 0.5]] + ident[1:],
         "a matrix entry must be a fraction string or an integer, got 0.5"),
        # a ragged matrix was once called 5x5
        (ident[:2] + [[0, 0, 1]] + ident[3:],
         "the matrix rows must have one length, got lengths [3, 5]"),
    ):
        mf.write_text(json.dumps(matrix))
        r = run_cli("blocks", "--matrix", str(mf), "--n", "5", "--k", "1", check=2)
        assert json.loads(r.stdout) == {"error": error}, matrix
        assert r.stderr.strip()
    mf.write_text(json.dumps({"matrix": [[str(x) for x in row] for row in ident[:4]] + [ident[4]]}))
    r = run_cli("blocks", "--matrix", str(mf), "--n", "5", "--k", "1")
    assert json.loads(r.stdout)["omega_block"] == [[str(x) for x in row] for row in ident]


def test_homology_basis_out(tmp_path):
    out = tmp_path / "presentation.json"
    r = run_cli("homology", "basis", "--n", "5", "--k", "1", "--out", str(out))
    assert json.loads(r.stdout) == {"k": 1, "n": 5, "out": str(out), "rank": 5}
    dump = json.loads(out.read_text())
    assert dump["rank"] == 5
    assert len(dump["strata"]) == 10
    assert len(dump["basis"]) == 5
    basis = set(dump["basis"])
    for i, expansion in dump["expansions"].items():
        assert int(i) not in basis
        for j, c in expansion.items():
            assert int(j) in basis
            Fraction(c)


def test_homology_basis_bytes_pinned():
    # sha256 of the stdout of presentations built from the four-point
    # relations alone; the pairing route must reproduce them byte for byte,
    # and (6,2), (7,2), (7,3), (8,4) pin the relation route itself
    pinned = {
        ("6", "1"): "8c59f976860b54a661d057428c86c82fb0ccd6f04a4ea6e52b5409b0a0b684f2",
        ("7", "0"): "f0052cd41dba644b1d3937ae9d8b21548b2a38acf11c9e3de799c9cd0f2a990c",
        ("7", "1"): "9ec3a995c3f5108b73231c64a691e5e63289300b2ac24678acc079c55887afb6",
        ("6", "2"): "9493e3bcef5f397784f7b5d68357101cc4f1a13795dce54c67f9e083193d4aa1",
        ("7", "2"): "1fc154c1680d2892fe288fe5e1d01e5a4afaab5c33ecc93a9123a54223514da4",
        ("7", "3"): "0bb79eb2d458bdb47ad9f620121789dac931d39e1c2553607635528cb717c52f",
        ("8", "4"): "9f6eb28bc4c31ed30aaafbd17739aa548d88d38f333bba39d4fe2f48b979c75e",
        ("8", "0"): "e19550dbd5a5fa63c40bc05ebec8b81a3d4cafbcd328713641ce267d5209b026",
    }
    for (n, k), digest in pinned.items():
        r = run_cli("homology", "basis", "--n", n, "--k", k)
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest, (n, k)


def test_pushforward_out_and_blocks(tmp_path):
    out = tmp_path / "matrix.json"
    run_cli("pushforward", "--data", str(DATA / "d1_self.json"), "--out", str(out))
    dump = json.loads(out.read_text())
    assert dump["rows"] == dump["cols"] == 5
    ident = [["1" if i == j else "0" for j in range(5)] for i in range(5)]
    assert dump["matrix"] == ident
    assert dump["self_matrix"] == ident
    assert dump["row_marks"] == ["a%d" % i for i in range(1, 6)]
    assert len(dump["row_basis"]) == 5 and len(dump["col_basis"]) == 5
    r = run_cli("blocks", "--matrix", str(out), "--n", "5", "--k", "1")
    obj = json.loads(r.stdout)
    assert obj["lambda_dim"] == 0 and obj["omega_dim"] == 5
    assert obj["omega_block"] == ident


def test_pushforward_fig1_matrix():
    r = run_cli("pushforward", "--data", str(DATA / "fig1.json"))
    obj = json.loads(r.stdout)
    assert obj["matrix"] == [["1"]]
    assert obj["self_matrix"] == [["1"]]
    assert obj["deg_nu"] == 1


def test_hurwitz_types(tmp_path):
    tau = trees.enumerate_strata(4, 0)[0]
    tf = tmp_path / "tau.json"
    tf.write_text(json.dumps(tau.to_json_dict()))
    r = run_cli("hurwitz", "types", "--data", str(DATA / "fig1.json"), "--tau", str(tf))
    obj = json.loads(r.stdout)
    assert obj["ok"] is True
    assert obj["expected"] == 4 and obj["total"] == 4
    pairs = sorted((t["count"], t["multiplicity"]) for t in obj["types"])
    assert pairs == [(1, 1), (1, 3)]


def test_hurwitz_types_bytes_pinned(tmp_path, capsys):
    # sha256 of the stdout over fig1's three point strata and d3_five_datum's
    # first three curves, as computed before source curves were built from
    # node splits: every source tree, node datum and count is in the bytes
    pinned = {
        ("fig1", 0): "952e9cd1567c1bc90964f7ba4d887e5d79ccbd6af3ed9f10968cb9da9f0fced6",
        ("fig1", 1): "f20086abac7fa9594eacbe6ecf6a819ec3160e942a70b893cc045dfdbbb4e043",
        ("fig1", 2): "31b78088943f347e8148f86485c541d5dcfa69dcd816e0dc35dc70cea472ddaf",
        ("d3_five", 0): "f738a8ff4085e3f3d1bd7fc986525f76d9f19491fb6b721837b67644d4e9df84",
        ("d3_five", 1): "25e28efd53c1f2196914b4c6f94a74a5afdc662556491f33738eba8d4f015a22",
        ("d3_five", 2): "0aaa69406c5908b7376985361d526a900fccc34fd31dd8a359409cf8cfd18c21",
    }
    d3_five = tmp_path / "d3_five.json"
    d3_five.write_text(json.dumps(d3_five_datum().to_json_dict()))
    data = {"fig1": (DATA / "fig1.json", trees.enumerate_strata(4, 0)),
            "d3_five": (d3_five, trees.enumerate_strata(5, 1)[:3])}
    tf = tmp_path / "tau.json"
    for (name, i), digest in pinned.items():
        path, strata = data[name]
        tf.write_text(json.dumps(strata[i].to_json_dict()))
        assert cli.main(["hurwitz", "types", "--data", str(path), "--tau", str(tf)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, i)


def test_hurwitz_types_degree_four_bytes_pinned(tmp_path):
    # the datum and point stratum of the installed-script step in CI; the
    # sha256 is that of the output as computed before only least labelings
    # were glued
    data = tmp_path / "d4.json"
    data.write_text(json.dumps(d4_total_datum().to_json_dict()))
    tf = tmp_path / "tau.json"
    tf.write_text(json.dumps({"n": 4, "parents": [-1, 0], "legs": {"1": 0, "2": 0, "3": 1, "4": 1}}))
    r = run_cli("hurwitz", "types", "--data", str(data), "--tau", str(tf))
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
        "b63b35c36d89e502243837e06c3eb00a0e0d3ba6b50d2ea8dc522deeabc82ace"
    )
    obj = json.loads(r.stdout)
    assert obj["ok"] is True and obj["expected"] == 144


def test_hurwitz_types_rejects_malformed_tau(tmp_path):
    # no root: vertices 0 and 1 are each other's parent
    tf = tmp_path / "tau.json"
    tf.write_text(json.dumps({"n": 4, "parents": [1, 0], "legs": {"1": 0, "2": 0, "3": 1, "4": 1}}))
    r = run_cli("hurwitz", "types", "--data", str(DATA / "fig1.json"), "--tau", str(tf), check=2)
    assert json.loads(r.stdout) == {"error": "tree must have exactly one root, found 0"}
    # a mark missing from the leg table is an error, not a leg on vertex 0
    tf.write_text(json.dumps({"n": 4, "parents": [-1], "legs": {"1": 0}}))
    r = run_cli("hurwitz", "types", "--data", str(DATA / "fig1.json"), "--tau", str(tf), check=2)
    assert json.loads(r.stdout) == {"error": "leg table must cover marks 1..4"}
    # a leg table that is a list, not an object, is refused the same way
    tf.write_text(json.dumps({"n": 4, "parents": [-1], "legs": [0, 0, 0, 0]}))
    r = run_cli("hurwitz", "types", "--data", str(DATA / "fig1.json"), "--tau", str(tf), check=2)
    assert json.loads(r.stdout) == {"error": "legs must be an object {mark: vertex}"}
    # a missing field is named, where it once showed as the bare key "'legs'"
    tf.write_text(json.dumps({"n": 4, "parents": [-1]}))
    r = run_cli("hurwitz", "types", "--data", str(DATA / "fig1.json"), "--tau", str(tf), check=2)
    assert json.loads(r.stdout) == {"error": "a stratum needs the field legs"}
    # and a stratum that is not an object is refused by name, not by a
    # failed list index
    tf.write_text(json.dumps([{"n": 4, "parents": [-1], "legs": {"1": 0, "2": 0, "3": 0, "4": 0}}]))
    r = run_cli("hurwitz", "types", "--data", str(DATA / "fig1.json"), "--tau", str(tf), check=2)
    assert json.loads(r.stdout) == {"error": "a stratum must be an object"}


def test_invalid_datum_exits_2(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(
        json.dumps({"A": ["a1"], "B": ["b1"], "d": 2, "F": {"a1": "b1"}, "rm": {"a1": 5}})
    )
    r = run_cli("hurwitz", "count", "--data", str(f), check=2)
    assert "error" in json.loads(r.stdout)
    assert r.stderr.strip()
    # a map of the datum given as a list, not an object, is refused the same way
    fig1 = json.loads((DATA / "fig1.json").read_text())
    for name in ("F", "br", "rm", "identify"):
        f.write_text(json.dumps(dict(fig1, **{name: [["a1", "b1"]]})))
        r = run_cli("hurwitz", "count", "--data", str(f), check=2)
        assert json.loads(r.stdout) == {"error": "%s must be an object keyed by mark" % name}
        assert r.stderr.strip()
    # and so is a datum that is not an object
    f.write_text(json.dumps([fig1]))
    r = run_cli("hurwitz", "count", "--data", str(f), check=2)
    assert "error" in json.loads(r.stdout)


def test_marks_exceeding_the_branching_exit_2_with_the_multisets(tmp_path):
    # two marks over b1, ramified 2 and 1, where br(b1) = [2] has one part
    f = tmp_path / "exceed.json"
    f.write_text('{"A":["a1","a2"],"B":["b1","b2","b3"],"d":2,"F":{"a1":"b1","a2":"b1"},'
                 '"br":{"b1":[2],"b2":[2]},"rm":{"a1":2,"a2":1}}')
    r = run_cli("hurwitz", "count", "--data", str(f), check=2)
    assert r.stdout == ('{"error": "invalid correspondence datum: marks over b1 exceed its '
                        'branching: {2: 1, 1: 1} vs {2: 1}"}\n')


@pytest.mark.parametrize("argv", [
    ("hurwitz", "count", "--data", str(DATA / "d2.json")),
    ("dyndeg", "--data", str(DATA / "fig1.json"), "--k", "0"),
    ("pushforward", "--data", str(DATA / "fig1.json")),
])
def test_a_command_validates_its_datum_once(argv, monkeypatch, capsys):
    # the loader's fully_mark validates the datum and keeps its marking,
    # which the command reads back instead of validating again
    calls = []
    real = hurwitz.validate
    monkeypatch.setattr(hurwitz, "validate", lambda h: calls.append(h) or real(h))
    assert cli.main(list(argv)) == 0
    assert json.loads(capsys.readouterr().out)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["A", "B", "d", "F", "rm"])
def test_missing_datum_field_is_named(tmp_path, name):
    # once shown as the bare key, {"error": "'A'"}
    f = tmp_path / "bad.json"
    fig1 = json.loads((DATA / "fig1.json").read_text())
    f.write_text(json.dumps({k: v for k, v in fig1.items() if k != name}))
    r = run_cli("hurwitz", "count", "--data", str(f), check=2)
    assert json.loads(r.stdout) == {"error": "a datum needs the field %s" % name}
    assert r.stderr.strip()


def test_datum_numbers_and_arrays_are_not_coerced(tmp_path):
    # each of these was once read as something else: degree 3, a part 2,
    # degree 1, four one-letter marks
    f = tmp_path / "bad.json"
    fig1 = json.loads((DATA / "fig1.json").read_text())
    for change, error in (
        ({"d": 3.9}, "d must be an integer, got 3.9"),
        ({"br": dict(fig1["br"], b1=[1, 2.7])}, "a part of br[b1] must be an integer, got 2.7"),
        ({"d": True}, "d must be an integer, got true"),
        ({"B": "bcde"}, 'B must be an array, got "bcde"'),
        ({"rm": dict(fig1["rm"], a1="2")}, 'rm[a1] must be an integer, got "2"'),
        ({"br": dict(fig1["br"], b1="12")}, 'br[b1] must be an array, got "12"'),
        ({"forget_to": "a1"}, 'forget_to must be an array, got "a1"'),
    ):
        f.write_text(json.dumps(dict(fig1, **change)))
        r = run_cli("hurwitz", "count", "--data", str(f), check=2)
        assert json.loads(r.stdout) == {"error": error}, change
        assert r.stderr.strip()


def test_tau_numbers_and_arrays_are_not_coerced(tmp_path):
    # the first was once read as the n = 4 tree with parents [-1, 0]
    tf = tmp_path / "tau.json"
    legs = {"1": 0, "2": 0, "3": 1, "4": 1}
    for tau, error in (
        ({"n": 4.6, "parents": [-1, 0.7], "legs": legs}, "n must be an integer, got 4.6"),
        ({"n": 4, "parents": [-1, 0.7], "legs": legs}, "a parent must be an integer, got 0.7"),
        ({"n": 4, "parents": [-1, 0], "legs": dict(legs, **{"3": True})},
         "the vertex of mark 3 must be an integer, got true"),
        ({"n": 4, "parents": "-1", "legs": legs}, 'parents must be an array, got "-1"'),
    ):
        tf.write_text(json.dumps(tau))
        r = run_cli("hurwitz", "types", "--data", str(DATA / "fig1.json"), "--tau", str(tf), check=2)
        assert json.loads(r.stdout) == {"error": error}, tau


def test_tau_leg_keys_must_be_marks_spelled_as_str_does(tmp_path):
    # this leg table once passed as marks 1..4
    tf = tmp_path / "tau.json"
    tf.write_text(json.dumps({"n": 4, "parents": [-1, 0], "legs": {" 1": 0, "+2": 0, "03": 1, "4": 1}}))
    r = run_cli("hurwitz", "types", "--data", str(DATA / "fig1.json"), "--tau", str(tf), check=2)
    assert json.loads(r.stdout) == {"error": "bad leg table entry for mark ' 1'"}
    assert r.stderr.strip()


def test_limit_exits_3():
    r = run_cli("homology", "dims", "--n", "7", "--limit-strata", "100", check=3)
    assert "error" in json.loads(r.stdout)


def test_filtration_dims_limit_exits_3_with_the_presentation_error():
    r = run_cli("filtration", "dims", "--n", "7", "--k", "2", "--limit-strata", "100", check=3)
    assert r.stdout == '{"error": "presentation for (n=7, k=2) needs more than 100 strata"}\n'


def test_pushforward_limit_strata_bounds_the_one_edge_targets():
    # four target marks have one curve stratum but three one-edge strata
    # (points), over which the pushforward enumerates its covers
    r = run_cli("pushforward", "--data", str(DATA / "fig1.json"), "--limit-strata", "2", check=3)
    assert r.stdout == '{"error": "stratum enumeration exceeded limit 2"}\n'
    r = run_cli("pushforward", "--data", str(DATA / "fig1.json"), "--limit-strata", "3")
    assert json.loads(r.stdout)["matrix"] == [["1"]]


def test_unknown_flag_exits_2():
    r = run_cli("homology", "dims", "--n", "6", "--bogus", check=2)
    assert "error" in json.loads(r.stdout)


def test_jobs_flag_is_refused():
    # --jobs was accepted and ignored (every command runs serial); it is
    # now an unknown option, on the subcommands and on selftest alike
    for argv in (("homology", "dims", "--n", "5"), ("selftest",)):
        r = run_cli(*argv, "--jobs", "1", check=2)
        assert json.loads(r.stdout) == {"error": "unrecognized arguments: --jobs 1"}, argv


def test_data_files_match_builtin_examples():
    for path, builder in (
        ("fig1.json", cli._fig1_data),
        ("d2.json", cli._d2_data),
        ("d1_self.json", lambda: cli._d1_data(5)),
    ):
        on_disk = json.loads((DATA / path).read_text())
        assert on_disk == builder().to_json_dict(), path


def test_main_in_process_repeats_match_fresh_processes(capsys):
    # main keeps one parser per process; a refused call must leave it, and
    # the library caches, as they were for the calls that follow, and a
    # capped call must be refused on warm caches as in a fresh process
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli._parser()
    fig1 = str(DATA / "fig1.json")
    argvs = [
        ("homology", "dims", "--n", "5"),
        ("homology", "dims", "--n", "6", "--bogus"),
        ("strata", "--n", "5", "--k", "1"),
        ("homology", "dims", "--n", "5", "--jobs", "4"),
        ("filtration", "dims", "--n", "6", "--k", "2"),
        ("homology", "dims", "--n", "7", "--limit-strata", "100"),
        ("homology", "dims", "--n", "6"),
        ("strata", "--n", "6", "--k", "2", "--limit-strata", "24"),
        ("strata", "--n", "6", "--k", "2", "--limit-strata", "25"),
        ("dyndeg", "--data", fig1, "--k", "0"),
        ("dyndeg", "--data", fig1, "--k", "1"),
        ("hurwitz", "count", "--data", fig1),
        # refused from the cover classes the uncapped count just kept
        ("hurwitz", "count", "--data", fig1, "--limit-tuples", "5"),
    ]

    def in_process(argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
        return code, capsys.readouterr().out

    fresh = {}
    for argv in argvs:
        r = subprocess.run([sys.executable, "-m", "stratadyn.cli", *argv],
                           capture_output=True, text=True, env=ENV)
        fresh[argv] = (r.returncode, r.stdout)
    for _ in range(2):
        for argv in argvs:
            assert in_process(argv) == fresh[argv], argv
    codes = sorted({code for code, _ in fresh.values()})
    assert codes == [0, 2, 3]
