"""Fuzz the text parsers and the CLI: every input ends in a result or a
documented error, never in a traceback.

The CLI contract is exit code 0, 1, 2 or 3 from ``main``, or argparse's own
``SystemExit(2)`` for a command line it cannot parse. Sizes stay tiny so the
whole module runs in a few seconds.
"""

import pytest
from hypothesis import given, settings, strategies as st

from bipack.cli import main
from bipack.graphs import parse_graph, parse_sequence

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "4", "-1", "-7", "1.5", "x", "", "\n", "99999999999"]
)


@pytest.mark.parametrize("parse", [parse_graph, parse_sequence])
@FUZZ
@given(text=st.one_of(st.text(max_size=40), st.lists(TOKENS, max_size=12).map(" ".join)))
def test_parser_returns_or_raises_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    texts = {
        "k44": "4 4\n" + "".join(f"{a} {b}\n" for a in range(4) for b in range(4)),
        "matching": "4 4\n0 0\n1 1\n2 2\n3 3\n",
        "star": "4 4\n0 0\n0 1\n1 2\n",
        "dup": "4 4\n0 0\n0 0\n",
        "ones": "2 2\n1 1\n1 1\n",
        "bad": "2 2\n2 2\n2 1\n",
        "negative": "2 2\n-1 1\n1 1\n",
        "garbage": "m n\nzz\n",
        "empty": "",
    }
    out = {}
    for name, text in texts.items():
        out[name] = tmp / f"{name}.txt"
        out[name].write_text(text)
    out["dir"] = tmp / "subdir"
    out["dir"].mkdir()
    out["missing"] = tmp / "missing.txt"
    out["new"] = tmp / "new.txt"
    return {name: str(path) for name, path in out.items()}


BROKEN = ["dup", "negative", "garbage", "empty", "dir", "missing"]
GRAPHS = st.sampled_from(["k44", "matching", "star"] + BROKEN)
SEQUENCES = st.sampled_from(["ones", "bad"] + BROKEN)
OUTS = st.sampled_from(["new", "dir"])
FLOATS = st.sampled_from(
    ["0", "-1", "0.3", "0.49", "0.75", "1", "2", "inf", "-inf", "nan", "1e308", "1.79e308"]
)
SMALL_INTS = st.sampled_from(["-3", "0", "1", "2", "4", "8"])


@st.composite
def command_lines(draw, paths):
    command = draw(
        st.sampled_from(
            ["check-sequence", "check-conditions", "embed", "pack", "oracle", "gen", "experiment"]
        )
    )
    argv = [command]

    def opt(flag, values, files=None):
        """Append [flag, value] half the time; file names are looked up in files."""
        if draw(st.booleans()):
            value = draw(values)
            argv.extend([flag, files[value] if files else value])

    if command == "check-sequence":
        argv.append(paths[draw(SEQUENCES)])
        if draw(st.booleans()):
            argv.append("--graphic")
    elif command == "check-conditions":
        opt("--host", GRAPHS, paths)
        opt("--target", GRAPHS, paths)
        opt("--seq1", SEQUENCES, paths)
        opt("--seq2", SEQUENCES, paths)
        opt("--eps", FLOATS)
        opt("--log-base", FLOATS)
    elif command == "embed":
        argv += ["--host", paths[draw(GRAPHS)], "--target", paths[draw(GRAPHS)]]
        argv += ["--eps", draw(FLOATS)]
        opt("--mode", st.sampled_from(["strict", "relaxed"]))
        opt("--cap", FLOATS)
        opt("--retries", st.sampled_from(["-1", "0", "2"]))
        opt("--seed", SMALL_INTS)
        opt("--log-base", FLOATS)
    elif command == "pack":
        argv += ["--seq1", paths[draw(SEQUENCES)], "--seq2", paths[draw(SEQUENCES)]]
        opt("--max-nodes", SMALL_INTS)
    elif command == "oracle":
        argv += ["--host", paths[draw(GRAPHS)], "--target", paths[draw(GRAPHS)]]
        opt("--max-nodes", st.sampled_from(["-1", "0", "4", "8", "12", "100"]))
    elif command == "gen":
        kind = draw(st.sampled_from(["random", "star-forest", "condition1", "condition2"]))
        argv += ["--kind", kind, "--n", draw(SMALL_INTS)]
        opt("--p", FLOATS)
        opt("--c", FLOATS)
        opt("--seed", SMALL_INTS)
        if draw(st.booleans()):
            argv += ["--hub-degrees"] + draw(st.lists(SMALL_INTS, max_size=3))
    else:
        argv += ["--n"] + draw(st.lists(SMALL_INTS, min_size=1, max_size=2))
        if draw(st.booleans()):
            argv += ["--p"] + draw(st.lists(FLOATS, min_size=1, max_size=2))
        if draw(st.booleans()):
            argv += ["--delta-h"] + draw(st.lists(SMALL_INTS, min_size=1, max_size=2))
        opt("--eps", FLOATS)
        argv += ["--trials", draw(st.sampled_from(["-1", "0", "1", "2"]))]
        opt("--mode", st.sampled_from(["strict", "relaxed"]))
        opt("--retries", st.sampled_from(["-1", "0", "1"]))
        opt("--generator", st.sampled_from(["random", "condition1"]))
        opt("--demand-total", st.sampled_from(["-3", "0", "3", "5", "100", "99999999999"]))
    opt("--out", OUTS, paths)
    return argv


@FUZZ
@given(data=st.data())
def test_cli_exit_code_contract(paths, data):
    argv = data.draw(command_lines(paths))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        assert exc.code == 2, argv
    else:
        assert code in (0, 1, 2, 3), argv
