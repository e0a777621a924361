import json
import os
import subprocess
import sys

import cadec
from cadec.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cad_count(capsys):
    code, out, _ = run(["cad", "count", "--formula", "x^2 + y^2 - 1 = 0",
                        "--order", "y,x"], capsys)
    assert code == 0
    assert "total: 13" in out


def test_cad_build_json(tmp_path, capsys):
    target = str(tmp_path / "tree.json")
    code, out, _ = run(["cad", "build", "--formula",
                        "x^2 + y^2 - 1 = 0 and x > 0", "--order", "y,x",
                        "--mode", "ec-gb", "--json", target], capsys)
    assert code == 0
    assert "cells: 13" in out and "ell=1" in out
    data = json.loads(open(target).read())
    assert data["order"] == ["y", "x"]


def test_cad_decide(capsys):
    code, out, _ = run(["cad", "decide", "--formula",
                        "forall y. exists x. x - y = 0", "--order", "y,x"],
                       capsys)
    assert code == 0 and out.strip() == "true"


def test_cad_decide_formula_file(tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text("forall y. exists x. x^2 + y^2 - 1 = 0\n")
    code, out, _ = run(["cad", "decide", "--formula", str(path),
                        "--order", "y,x"], capsys)
    assert code == 0 and out.strip() == "false"


def test_parse_error_exit_code(capsys):
    code, _, err = run(["cad", "decide", "--formula", "x + = 0",
                        "--order", "x"], capsys)
    assert code == 2 and "parse error" in err


def test_well_orientedness_exit_code(capsys):
    code, _, err = run(["cad", "count", "--formula", "y*x + y = 0",
                        "--order", "y,x"], capsys)
    assert code == 3


def test_nullification_after_vanishing_chain_exit_code(capsys):
    # over y = +-sqrt 2 the chain of (x + y)*(z + 1) vanishes under both
    # elimination orders; the polynomial then vanishes identically over the
    # cell x = -y, a documented refusal rather than an internal error
    code, _, err = run(["cad", "count", "--formula",
                        "y^2 - 2 = 0 and (x + y)*(z + 1) > 0",
                        "--order", "x,y,z", "--mode", "ec-res"], capsys)
    assert code == 3
    assert "vanishes identically" in err


def test_bench_bound(capsys):
    code, out, _ = run(["bench", "bound", "--n", "3", "--m", "1", "--d", "3"],
                       capsys)
    assert code == 0 and out.strip() == "2239488"


def test_bench_dh(capsys):
    code, out, _ = run(["bench", "dh", "--depth", "1", "--form", "product",
                        "--report"], capsys)
    assert code == 0
    assert out.count("IMPRIMITIVE") == 2


def test_bench_run(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "circle.txt").write_text("order: y,x\nx^2 + y^2 - 1 = 0\n")
    csv_path = str(tmp_path / "out.csv")
    code, out, _ = run(["bench", "run", "--corpus", str(corpus),
                        "--modes", "si,ec-gb", "--csv", csv_path], capsys)
    assert code == 0
    lines = open(csv_path).read().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("circle,si,2,1,2,0,13,5;13")


def test_bench_run_corpus_without_order_line(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "noorder.txt").write_text("y,x\nx^2 + y^2 - 1 = 0\n")
    code, _, err = run(["bench", "run", "--corpus", str(corpus),
                        "--modes", "si", "--csv", str(tmp_path / "out.csv")], capsys)
    assert code == 2
    assert "parse error" in err and "noorder.txt" in err


def test_gb(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("z^2 - x\nz^2 - y\n")
    code, out, _ = run(["gb", "--order", "lex", "--vars", "z,x,y",
                        "--gens", str(gens)], capsys)
    assert code == 0
    assert "x - y" in out and "dimension: 1" in out


def test_gb_output_independent_of_hash_seed(tmp_path):
    # the elimination ideals are sets, which hash seeds 1 and 2 iterate in
    # different orders
    gens = tmp_path / "gens.txt"
    gens.write_text("x*y - z\nx*z - y\ny*z - x\n")
    src = os.path.dirname(os.path.dirname(cadec.__file__))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.append(subprocess.run(
            [sys.executable, "-m", "cadec.cli", "gb", "--vars", "x,y,z",
             "--gens", str(gens)], env=env, capture_output=True, text=True,
            check=True).stdout)
    assert "elimination onto {z,y}: z^3 - z; y*z^2 - y; y^2 - z^2" in outs[0]
    assert outs[0] == outs[1]
