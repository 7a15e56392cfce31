import json
import time

import pytest

from bipack.cli import main
from bipack.graphs import format_graph, format_sequence, parse_graph
from bipack.generators import gen_condition1_counterexample, gen_star_forest
from bipack.graphs import BigraphicSequence


@pytest.fixture
def files(tmp_path):
    host = gen_star_forest(4, [1, 1, 1, 1])  # identity matching graph
    full = parse_graph("4 4\n" + "\n".join(f"{a} {b}" for a in range(4) for b in range(4)))
    paths = {}
    paths["k44"] = tmp_path / "k44.txt"
    paths["k44"].write_text(format_graph(full))
    paths["matching"] = tmp_path / "matching.txt"
    paths["matching"].write_text(format_graph(host))
    paths["c1"] = tmp_path / "c1.txt"
    paths["c1"].write_text(format_graph(gen_condition1_counterexample(4)))
    paths["ones"] = tmp_path / "ones.txt"
    paths["ones"].write_text(format_sequence(BigraphicSequence((1, 1), (1, 1))))
    paths["bad"] = tmp_path / "bad.txt"
    paths["bad"].write_text(format_sequence(BigraphicSequence((2, 2), (2, 1))))
    paths["tmp"] = tmp_path
    return paths


class TestCheckSequence:
    def test_bigraphic_ok(self, files, capsys):
        assert main(["check-sequence", str(files["ones"])]) == 0
        assert json.loads(capsys.readouterr().out) == {"bigraphic": True}

    def test_not_bigraphic(self, files, capsys):
        assert main(["check-sequence", str(files["bad"])]) == 1

    def test_graphic_flag(self, files, capsys):
        assert main(["check-sequence", str(files["ones"]), "--graphic"]) == 0
        assert json.loads(capsys.readouterr().out) == {"graphic": True}


class TestEmbed:
    def test_success_json(self, files, capsys):
        code = main(
            [
                "embed", "--host", str(files["k44"]), "--target", str(files["matching"]),
                "--eps", "0.4", "--cap", "2", "--seed", "1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"sToA", "tToB", "edges"}
        assert len(payload["edges"]) == 4

    def test_failure_json(self, files, capsys):
        code = main(
            [
                "embed", "--host", str(files["c1"]), "--target", str(files["matching"]),
                "--eps", "0.4", "--cap", "2", "--seed", "1",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"phase", "pairIndex", "deficit", "attempts", "notes"}
        assert payload["attempts"] == 6

    def test_tiny_eps_huge_cap_is_fast(self, files, capsys):
        # one band, found from a logarithm, not by walking ~700k empty bands
        start = time.perf_counter()
        code = main(
            [
                "embed", "--host", str(files["k44"]), "--target", str(files["matching"]),
                "--eps", "0.01", "--cap", "1e308",
            ]
        )
        assert time.perf_counter() - start < 0.5
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["edges"]) == 4

    def test_deterministic_output(self, files, capsys):
        args = [
            "embed", "--host", str(files["k44"]), "--target", str(files["matching"]),
            "--eps", "0.4", "--cap", "2", "--seed", "42",
        ]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first


class TestOracleAndPack:
    def test_oracle_no_embedding(self, files, capsys):
        code = main(
            ["oracle", "--host", str(files["c1"]), "--target", str(files["matching"])]
        )
        assert code == 1

    def test_oracle_budget(self, files, capsys):
        code = main(
            [
                "oracle", "--host", str(files["k44"]), "--target", str(files["matching"]),
                "--max-nodes", "4",
            ]
        )
        assert code == 3

    def test_pack_ok(self, files, capsys):
        assert main(["pack", "--seq1", str(files["ones"]), "--seq2", str(files["ones"])]) == 0


class TestGen:
    def test_condition1_roundtrip(self, files, capsys):
        assert main(["gen", "--kind", "condition1", "--n", "8"]) == 0
        g = parse_graph(capsys.readouterr().out)
        assert g.min_degree() == 3

    def test_condition2_infeasible_is_usage_error(self, files, capsys):
        assert main(
            ["gen", "--kind", "condition2", "--n", "64", "--c", "4.0",
             "--out", str(files["tmp"] / "h.txt")]
        ) == 2

    def test_star_forest(self, files, capsys):
        assert main(
            ["gen", "--kind", "star-forest", "--n", "6", "--hub-degrees", "3", "2", "1"]
        ) == 0
        g = parse_graph(capsys.readouterr().out)
        assert g.a_degrees[:3] == [3, 2, 1]


class TestExperimentCommand:
    def test_writes_reproducible_csv(self, files):
        out1 = files["tmp"] / "runA"
        out2 = files["tmp"] / "runB"
        args = [
            "experiment", "--n", "8", "--p", "0.9", "--delta-h", "2",
            "--trials", "3", "--seed", "5",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (files["tmp"] / "runA.csv").read_text() == (
            files["tmp"] / "runB.csv"
        ).read_text()

    def test_conditions_compare(self, files, capsys):
        code = main(
            ["check-conditions", "--seq1", str(files["ones"]), "--seq2", str(files["ones"])]
        )
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert {r["theorem"] for r in reports} >= {"sauer-spencer", "busch"}

    def test_theorem1_report(self, files, capsys):
        code = main(
            [
                "check-conditions", "--host", str(files["k44"]),
                "--target", str(files["matching"]), "--eps", "0.4",
            ]
        )
        assert code == 1  # the degree cap fails at n=4
        report = json.loads(capsys.readouterr().out)
        assert report["theorem"] == "theorem1"


USAGE_ERRORS = [
    ["embed", "--host", "{tmp}", "--target", "{matching}", "--eps", "0.4", "--cap", "2"],
    ["embed", "--host", "{k44}", "--target", "{matching}", "--eps", "0.4", "--cap", "2",
     "--out", "{tmp}"],
    ["embed", "--host", "{k44}", "--target", "{matching}", "--eps", "0.4", "--cap", "inf"],
    ["embed", "--host", "{k44}", "--target", "{matching}", "--eps", "0.4",
     "--mode", "strict", "--log-base", "inf"],
    ["check-conditions", "--host", "{k44}", "--target", "{matching}", "--log-base", "inf"],
    ["gen", "--kind", "condition2", "--n", "64", "--c", "inf", "--out", "{tmp}/h.txt"],
    ["experiment", "--n", "8", "--delta-h", "0", "--trials", "1"],
    ["experiment", "--n", "8", "--delta-h", "-2", "--trials", "1"],
    ["experiment", "--n", "8", "--demand-total", "-3", "--trials", "1"],
    ["oracle", "--host", "{dup}", "--target", "{matching}"],
    ["oracle", "--host", "{huge}", "--target", "{matching}"],
    ["gen", "--kind", "random", "--n", "524289", "--p", "0.5"],
    ["gen", "--kind", "star-forest", "--n", "99999999999"],
    ["embed", "--host", "{k44}", "--target", "{matching}", "--eps", "1e-30", "--cap", "2"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda argv: " ".join(argv))
def test_bad_input_is_usage_error(files, capsys, argv):
    dup = files["tmp"] / "dup.txt"
    dup.write_text("4 4\n0 0\n0 0\n")
    huge = files["tmp"] / "huge.txt"
    huge.write_text("99999999999 0\n")
    names = {key: str(path) for key, path in files.items()}
    assert main([arg.format(dup=dup, huge=huge, **names) for arg in argv]) == 2
    assert "error" in capsys.readouterr().err
