import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import pglab
from reference import no_derived_table

from pglab.catalog import cyclic
from pglab.cli import main
from pglab.groups import Automorphism
from pglab.polyadic import as_table, derive
from pglab.serialize import polyadic_to_doc


@pytest.fixture
def doc_path(tmp_path, structs):
    def write(name, table_form=False):
        p = structs[name]
        doc = polyadic_to_doc(as_table(p) if table_form else p)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return write


class TestVerify:
    def test_valid_table(self, doc_path, capsys):
        rc = main(["verify", doc_path("T2b", table_form=True)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "associative: yes" in out and "solvable: yes" in out

    def test_corrupted_table(self, tmp_path, structs, capsys):
        doc = polyadic_to_doc(as_table(structs["T2b"]))
        doc["presentation"]["flat"][0] = 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1

    def test_derived_gate_failure(self, tmp_path, structs):
        doc = polyadic_to_doc(structs["T9"])
        doc["presentation"]["b"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1

    def test_json_violations_of_corrupted_table(self, tmp_path, structs, capsys):
        doc = polyadic_to_doc(as_table(structs["T3"]))
        doc["presentation"]["flat"][5] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["--json", "verify", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["axioms"]["violations"] == [
            ["associativity", 1, [0, 0, 1, 0, 2]],
            ["solvability", 0, [1, 2], 0],
        ]

    def test_table_past_the_exhaustive_cap(self, tmp_path, capsys):
        """der(Z8, id, 0, 5)'s grid of 8^9 tuples is past the default cap,
        its keyed cells are not: verify and analyze decide it, and a
        one-cell corruption exits 1, not associative."""
        doc = polyadic_to_doc(as_table(derive(cyclic(8), Automorphism.identity(8), 0, 5)))
        path = tmp_path / "z8.json"
        path.write_text(json.dumps(doc))
        assert main(["--json", "verify", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert main(["--json", "analyze", "--congruences", "--simplicity", str(path)]) == 0
        doc["presentation"]["flat"][1] = doc["presentation"]["flat"][0]
        path.write_text(json.dumps(doc))
        proc = run_cli(["verify", str(path)], {})
        assert proc.returncode == 1 and "associative: no" in proc.stdout
        proc = run_cli(["analyze", "--congruences", str(path)], {})
        assert proc.returncode == 1
        assert proc.stderr.startswith("NotSolvable: table fails solvability")
        assert "Traceback" not in proc.stderr

    def test_json_output(self, doc_path, capsys):
        rc = main(["--json", "verify", doc_path("T3")])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["dornte"] is True


class TestAnalyze:
    def test_simplicity(self, doc_path, capsys):
        rc = main(["analyze", doc_path("T9"), "--simplicity"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "UAS: no" in out and "GTS: yes" in out and "GTS*: yes" in out

    def test_skew(self, doc_path, capsys):
        rc = main(["analyze", doc_path("T3"), "--skew"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1↦2" in out and "2↦1" in out

    def test_congruences(self, doc_path, capsys):
        rc = main(["analyze", doc_path("T4"), "--congruences"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "congruences: 3" in out and "modular: yes" in out

    def test_json_roundtrip(self, doc_path, capsys):
        main(["--json", "analyze", doc_path("T9"), "--simplicity", "--normal"])
        first = json.loads(capsys.readouterr().out)
        main(["--json", "analyze", doc_path("T9"), "--simplicity", "--normal"])
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["simplicity"]["gts_star"] is True

    def test_quotient_flag(self, doc_path, capsys):
        rc = main(["analyze", doc_path("V4swap"), "--quotient", "0,3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 classes" in out


class TestCensus:
    def test_exhaustive(self, capsys):
        rc = main(["census", "--order", "2", "--arity", "3", "--mode", "exhaustive"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 classes" in out

    def test_cap_exit_code(self, capsys):
        rc = main(["census", "--order", "3", "--arity", "3", "--mode", "exhaustive"])
        assert rc == 2

    def test_exhaustive_refusal_exits_2_without_traceback(self):
        """(5, 6) would scan 5^15625 tables; the refusal names the count as a
        power instead of printing it."""
        proc = run_cli(["census", "--order", "5", "--arity", "6", "--mode", "exhaustive"], {})
        assert proc.returncode == 2
        assert "5^15636 cells" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_env_cap_override(self, doc_path, monkeypatch, capsys):
        monkeypatch.setenv("PGLAB_AXIOM_COST_CAP", "4")
        rc = main(["verify", doc_path("T2b", table_form=True)])
        assert rc == 2

    def test_flag_cap_override(self, doc_path):
        rc = main(["--axiom-cost-cap", "4", "verify", doc_path("T2b", table_form=True)])
        assert rc == 2

    @pytest.mark.parametrize(
        "argv,flag,variable",
        [
            (["verify", "{T2b}"], "--axiom-cost-cap", "PGLAB_AXIOM_COST_CAP"),
            (["census", "--order", "3", "--arity", "3", "--mode", "exhaustive"],
             "--axiom-cost-cap", "PGLAB_AXIOM_COST_CAP"),
            (["--order-cap", "1", "analyze", "{T2b}"], "--order-cap", "PGLAB_ORDER_CAP"),
            (["--arity-cap", "2", "analyze", "{T2b}"], "--arity-cap", "PGLAB_ARITY_CAP"),
        ],
    )
    def test_refusal_names_flag_and_variable(self, doc_path, monkeypatch, capsys, argv, flag,
                                             variable):
        monkeypatch.setenv("PGLAB_AXIOM_COST_CAP", "4")
        path = doc_path("T2b", table_form=True)
        assert main([path if a == "{T2b}" else a for a in argv]) == 2
        assert capsys.readouterr().err.endswith(f"(raise it with {flag} or {variable})\n")


class TestHomIsoQuotient:
    def test_hom_enumerate(self, doc_path, capsys):
        rc = main(["hom", "--from", doc_path("T3"), "--to", doc_path("T3"), "--enumerate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3 homomorphisms" in out

    def test_hom_map_valid(self, doc_path, capsys):
        rc = main([
            "hom", "--from", doc_path("T3"), "--to", doc_path("T3"), "--map", "0,2,1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "a = 0" in out

    def test_hom_map_invalid(self, doc_path, capsys):
        rc = main([
            "hom", "--from", doc_path("T3"), "--to", doc_path("T3"), "--map", "1,2,0",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "witness (0, 0, 0)" in out

    def test_hom_map_arity_mismatch_exits_1(self, doc_path, capsys):
        rc = main(["hom", "--from", doc_path("T3"), "--to", doc_path("T5"), "--map", "0,1,2"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ArityMismatch: ")

    def test_iso(self, doc_path, capsys):
        rc = main(["iso", "--from", doc_path("T4inv"), "--to", doc_path("T4")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "not isomorphic" in out

    def test_quotient_subgroup(self, doc_path, capsys):
        rc = main(["quotient", doc_path("V4swap"), "--subgroup", "0,3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 classes" in out

    def test_quotient_congruence(self, doc_path, capsys):
        rc = main([
            "quotient", doc_path("T9"), "--congruence", "0,3,6|1,4,7|2,5,8",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "order 3" in out

    @pytest.mark.parametrize("argv", [
        ["quotient", "{T3}", "--subgroup", "0"],
        ["analyze", "{T3}", "--quotient", "0"],
    ])
    def test_quotient_past_the_cost_cap_exits_2(self, doc_path, capsys, argv):
        # der(Z3, id, 0, 3) / {0} has 3 classes: its table has 3^3 cells
        argv = [doc_path("T3") if a == "{T3}" else a for a in argv]
        assert main(["--axiom-cost-cap", "26", *argv]) == 2
        assert "the quotient table needs 27 cells" in capsys.readouterr().err
        assert main(["--axiom-cost-cap", "27", *argv]) == 0

    @pytest.mark.parametrize("argv", [
        ["analyze", "{V4swap}", "--skew", "--retract", "1", "--subgroups", "--normal",
         "--congruences", "--simplicity", "--quotient", "0,3"],
        ["hom", "--from", "{V4swap}", "--to", "{V4swap}", "--enumerate"],
        ["hom", "--from", "{T3}", "--to", "{T3}", "--map", "0,2,1"],
        ["iso", "--from", "{T4inv}", "--to", "{T4}"],
        ["quotient", "{V4swap}", "--subgroup", "0,3"],
        ["quotient", "{T9}", "--congruence", "0,3,6|1,4,7|2,5,8"],
        ["census", "--order", "4", "--arity", "3"],
        ["verify", "{T5}"],
    ], ids=["analyze", "hom-enumerate", "hom-map", "iso", "quotient-subgroup",
            "quotient-congruence", "census", "verify"])
    def test_no_table_on_derived_input(self, doc_path, monkeypatch, argv):
        """Every command on derived documents, every oracle that may run
        included, reads them through eval_many: no input's m^n table is
        built, though a quotient's k^n answer is."""
        argv = [doc_path(a[1:-1]) if a.startswith("{") else a for a in argv]
        no_derived_table(monkeypatch)
        assert main(argv) == 0

    def test_quotient_rejects_non_normal(self, doc_path, capsys):
        rc = main(["quotient", doc_path("T4inv"), "--subgroup", "1"])
        assert rc == 1


class TestEmittedJsonRoundTrip:
    def test_census_documents_reload_and_reanalyze(self, tmp_path, capsys):
        main(["--json", "census", "--order", "2", "--arity", "3", "--mode", "exhaustive"])
        payload = json.loads(capsys.readouterr().out)
        for i, entry in enumerate(payload["classes"]):
            path = tmp_path / f"class{i}.json"
            path.write_text(json.dumps(entry["polyadic"]))
            rc = main(["--json", "analyze", str(path), "--simplicity"])
            report = json.loads(capsys.readouterr().out)["simplicity"]
            assert rc == 0
            for flag in ("uas", "gts", "gts_star", "reduced"):
                assert report[flag] == entry["report"][flag]


class TestParseFailures:
    def test_missing_file(self, tmp_path):
        assert main(["verify", str(tmp_path / "none.json")]) == 1

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"kind": "group", "order": 1, "table": [[0]]}))
        assert main(["verify", str(path)]) == 1


def run_cli(argv, env):
    src = str(Path(pglab.__file__).resolve().parents[1])
    run_env = {**os.environ, **env, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "pglab.cli"] + argv,
        capture_output=True, text=True, env=run_env, timeout=60,
    )


class TestNoMaskedArrays:
    def test_cli_never_imports_numpy_ma(self, tmp_path):
        """np.unique (and union1d, setdiff1d) import numpy.ma on their first
        call, which costs a fresh interpreter 9–15 ms; pglab's commands must
        not make that import."""
        script = """
import contextlib, io, json, sys
from pglab.catalog import cyclic
from pglab.cli import main
from pglab.groups import Automorphism
from pglab.polyadic import as_table, derive
from pglab.serialize import polyadic_to_doc
z4, z2 = (derive(cyclic(m), Automorphism.identity(m), 0, 3) for m in (4, 2))
for name, p in (("z4", z4), ("z4t", as_table(z4)), ("z2", z2)):
    json.dump(polyadic_to_doc(p), open(name + ".json", "w"))
analyze = ["--json", "analyze", "--subgroups", "--normal", "--congruences", "--simplicity"]
runs = [analyze + ["z4.json"], analyze + ["z4t.json"],
        ["--json", "census", "--order", "8", "--arity", "3"],
        ["--json", "census", "--order", "2", "--arity", "3", "--mode", "exhaustive"],
        ["--json", "quotient", "--subgroup", "0,2", "z4.json"],
        ["--json", "hom", "--from", "z4.json", "--to", "z2.json", "--enumerate"]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""
        src = str(Path(pglab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False", proc.stdout


class TestBrokenPipe:
    def test_reader_closing_early_gives_no_traceback(self):
        """A reader that closes the pipe before the output is written (as
        `| head -c 10` does) ends the run with exit code 1, not a traceback."""
        src = str(Path(pglab.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "pglab.cli", "--json", "census", "--order", "9", "--arity", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err, err


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, env",
        [
            (["quotient", "{T3}", "--congruence", "0,1|2"], {}),
            (["hom", "--from", "{T3}", "--to", "{T3}", "--map", "0,x,2"], {}),
            (["hom", "--from", "{T3}", "--to", "{T3}", "--map", "0,5,2"], {}),
            (["analyze", "{T3}", "--retract", "7"], {}),
            (["analyze", "{T4}", "--quotient", "0,5"], {}),
            (["census", "--order", "2", "--arity", "1"], {}),
            (["verify", "{T3}"], {"PGLAB_ORDER_CAP": "abc"}),
            (["verify", "{T3}"], {"PGLAB_ORDER_CAP": "-1"}),
            (["--axiom-cost-cap", "-1", "verify", "{T3}"], {}),
            (["census", "--order", "12", "--arity", "3"], {}),
            (["census", "--order", "13", "--arity", "3"], {}),
            (["quotient", "{T3}", "--congruence", "0|1|2|"], {}),
            (["census", "--order", "-2", "--arity", "3", "--mode", "exhaustive"], {}),
            (["census", "--order", "2", "--arity", "-1", "--mode", "exhaustive"], {}),
            # element lists that start with "-": argparse read them as options (exit 2)
            (["hom", "--from", "{T3}", "--to", "{T3}", "--map", "-1,1,2"], {}),
            (["quotient", "{T3}", "--subgroup", "-1,0"], {}),
            (["quotient", "{T3}", "--congruence", "-1,0|1|2"], {}),
            (["analyze", "{T4}", "--quotient", "-1,0"], {}),
            # the same, each flag abbreviated to a prefix argparse resolves
            (["analyze", "--quot", "-1,0", "{T4}"], {}),
            (["hom", "--from", "{T3}", "--to", "{T3}", "--ma", "-1,1,2"], {}),
            (["quotient", "{T3}", "--sub", "-1,0"], {}),
            (["quotient", "{T3}", "--con", "-1,0|1|2"], {}),
        ],
    )
    def test_exit_1_without_traceback(self, doc_path, argv, env):
        paths = {"{T3}": doc_path("T3"), "{T4}": doc_path("T4")}
        proc = run_cli([paths.get(a, a) for a in argv], env)
        assert proc.returncode == 1
        assert proc.stderr.startswith("ValidationError: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            # --s: --skew, --subgroups or --simplicity
            (["analyze", "--s", "-1,0", "{T4}"], "ambiguous option: --s could match"),
            # --con is analyze's --congruences, which takes no element list
            (["analyze", "--con", "-1,0", "{T4}"], "unrecognized arguments: -1,0"),
        ],
    )
    def test_a_prefix_of_no_element_list_flag_exits_2(self, doc_path, argv, message):
        proc = run_cli([doc_path("T4") if a == "{T4}" else a for a in argv], {})
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000, None],
        ids=["not-utf8", "nested-100000", "directory"],
    )
    def test_unreadable_document_exits_1(self, tmp_path, content):
        path = tmp_path / "doc.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        proc = run_cli(["analyze", str(path)], {})
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"ParseError: {path}: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("order, flat", [(0, []), (True, [0])])
    def test_bad_table_order_exits_1(self, tmp_path, order, flat):
        doc = {"kind": "polyadic", "arity": 3,
               "presentation": {"type": "table", "order": order, "flat": flat}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(["verify", str(path)], {})
        assert proc.returncode == 1
        assert proc.stderr.startswith("ParseError: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("table", [[[0, 1], [1]], [[0, 1], [1, 5]]])
    def test_bad_base_table_exits_1(self, tmp_path, table):
        doc = {"kind": "polyadic", "arity": 3,
               "presentation": {"type": "derived", "theta": [0, 1], "b": 0,
                                "base": {"kind": "group", "order": 2, "table": table}}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(["verify", str(path)], {})
        assert proc.returncode == 1
        assert proc.stderr.startswith("ValidationError: ")
        assert "Traceback" not in proc.stderr


    @pytest.mark.parametrize("order, arity", [(16, 3600), (2, 9)])
    def test_table_past_the_arity_cap_exits_2(self, tmp_path, capsys, order, arity):
        # the caps are read before order**arity, whatever the flat table holds
        doc = {"kind": "polyadic", "arity": arity,
               "presentation": {"type": "table", "order": order, "flat": [0] * 8}}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert "raise it with --arity-cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, value",
        [
            (("theta",), 5),
            (("theta",), [[0], [1]]),
            (("theta",), ["a", "b"]),
            (("theta",), None),
            (("theta",), [0.0, 1.5]),
            (("base", "table", 1), 5),
            (("base", "table", 1, 0), "a"),
            (("base", "table", 1, 0), {}),
            (("base", "table", 1, 0), 1.5),
            (("b",), True),
        ],
    )
    def test_derived_document_values_must_be_integers(self, tmp_path, structs, capsys, where,
                                                      value):
        doc = polyadic_to_doc(structs["T2"])
        *path, last = where
        leaf = doc["presentation"]
        for key in path:
            leaf = leaf[key]
        leaf[last] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().err.startswith("ParseError: ")


def _leaves(doc, where=()):
    """The path of every leaf (a value that is no dict or list) of doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, where + (key,))
        else:
            yield where + (key,)


@pytest.fixture(scope="module")
def fuzz_documents(tmp_path_factory):
    """Every 25th structure of order at most 5, derived and as a table,
    with the paths of its leaves, and a directory to write mutants into."""
    from pglab.corpus import standard_corpus

    docs = [polyadic_to_doc(q) for p in standard_corpus(max_order=5)[::25]
            for q in (p, as_table(p))]
    return [(doc, list(_leaves(doc))) for doc in docs], tmp_path_factory.mktemp("fuzz")


class TestDocumentFuzz:
    @given(data=st.data())
    def test_one_bad_leaf_exits_cleanly(self, fuzz_documents, data):
        """One leaf of a corpus document replaced by a value of the wrong
        type or range: verify and analyze --congruences return an exit code
        (0, 1 or 2) and raise nothing."""
        documents, tmp = fuzz_documents
        doc, leaves = data.draw(st.sampled_from(documents))
        where = data.draw(st.sampled_from(leaves))
        value = data.draw(st.sampled_from([-1, 1.5, True, None, "a", [], {}, 10**6]))
        mutant = json.loads(json.dumps(doc))
        leaf = mutant
        for key in where[:-1]:
            leaf = leaf[key]
        leaf[where[-1]] = value
        path = tmp / "mutant.json"
        path.write_text(json.dumps(mutant))
        for argv in (["--json", "verify"], ["--json", "analyze", "--congruences"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv + [str(path)]) in (0, 1, 2)


class TestGoldenDigests:
    def test_analyze_json_matches_golden(self):
        """`pglab --json analyze` on every 10th corpus structure and its table
        form, `iso` between the two, `hom --enumerate` on sampled corpus pairs
        and `census` on fixed cells give the recorded exit code, stdout and
        stderr digests."""
        root = Path(__file__).resolve().parents[1]
        run_env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "cli_golden.py"), "--check"],
            capture_output=True, text=True, env=run_env, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
