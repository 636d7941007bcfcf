import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gdag_lab
from gdag_lab.catalog import (
    bell_gdag,
    chain,
    instrumental_gdag,
    one_sided_bell_gdag,
    triangle_gdag,
)
from gdag_lab.cli import run
from gdag_lab.graph import GDag, NodeKind, parse_gdag
from gdag_lab.models import ConditionalDistribution, Distribution

from generators import latent_chain

F = Fraction
H = F(1, 2)


@pytest.fixture
def bell_path(tmp_path):
    p = tmp_path / "bell.json"
    p.write_text(bell_gdag().to_json())
    return str(p)


def _dist_path(tmp_path, dist, name="dist.json"):
    p = tmp_path / name
    p.write_text(dist.to_json())
    return str(p)


def test_dsep_true_false(bell_path, capsys):
    assert run(["dsep", bell_path, "--x", "X", "--y", "Y"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["dsep", bell_path, "--x", "A", "--y", "B", "--z", "X,Y"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_dsep_witness(bell_path, capsys):
    assert run(["dsep", bell_path, "--x", "X", "--y", "Y", "--witness"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "true"
    w = json.loads(lines[1])
    assert set(w) == {"u", "v", "z", "w"}
    assert "X" in w["u"] and "Y" in w["v"]


def test_dsep_rejects_bad_sets(bell_path, capsys):
    assert run(["dsep", bell_path, "--x", "X", "--y", "X"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["dsep", bell_path, "--x", "X", "--y", "NOPE"]) == 2


def test_ci_set(bell_path, capsys):
    assert run(["ci-set", bell_path]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {"x": ["X"], "y": ["Y"], "z": []} in rows


def test_check_dist_pass_and_fail(tmp_path, capsys):
    gp = tmp_path / "chain.json"
    gp.write_text(chain().to_json())
    uniform = Distribution(
        (("X", 2), ("Z", 2), ("Y", 2)), (F(1, 8),) * 8
    )
    assert run(["check-dist", str(gp), _dist_path(tmp_path, uniform)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["satisfies_I"] is True

    # X = Y a shared coin while Z is independent: X indep Y given Z fails
    probs = [F(0)] * 8
    for z in range(2):
        probs[0 * 4 + z * 2 + 0] = F(1, 4)
        probs[1 * 4 + z * 2 + 1] = F(1, 4)
    bad = Distribution((("X", 2), ("Z", 2), ("Y", 2)), tuple(probs))
    assert run(["check-dist", str(gp), _dist_path(tmp_path, bad)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["satisfies_I"] is False
    assert out["violated"]


def test_check_dist_conditional(tmp_path, capsys, bell_path):
    rows = []
    for y in range(2):
        for a in range(2):
            for b in range(2):
                rows.append(F(1) if (b == 0 and a == y) else F(0))
    fam = ConditionalDistribution((("A", 2), ("B", 2)), (("Y", 2),), tuple(rows))
    p = tmp_path / "fam.json"
    p.write_text(fam.to_json())
    assert run(["check-dist", bell_path, str(p)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["instrumental_value"] == "2"


def test_ineq_triangle(tmp_path, capsys):
    ghz = Distribution(
        (("A", 2), ("B", 2), ("C", 2)), (H, 0, 0, 0, 0, 0, 0, H)
    )
    assert run(["ineq", "triangle", _dist_path(tmp_path, ghz)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["monogamy_margin"] == pytest.approx(1.0)
    assert out["gpt_feasible"] is False

    prod = Distribution((("A", 2), ("B", 2), ("C", 2)), (F(1, 8),) * 8)
    assert run(["ineq", "triangle", _dist_path(tmp_path, prod)]) == 0


def test_ineq_instrumental(tmp_path, capsys):
    rows = []
    for y in range(2):
        for a in range(2):
            for b in range(2):
                rows.append(F(1) if (a, b) == (0, 0) else F(0))
    fam = ConditionalDistribution((("A", 2), ("B", 2)), (("Y", 2),), tuple(rows))
    p = tmp_path / "fam.json"
    p.write_text(fam.to_json())
    assert run(["ineq", "instrumental", str(p)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "1"


TWO_VARS = Distribution((("A", 2), ("B", 2)), (F(1, 4),) * 4).to_json()
ONE_VAR_FAMILY = ConditionalDistribution((("A", 2),), (("Y", 2),), (H, H, H, H)).to_json()
THREE_VARS = Distribution((("A", 2), ("B", 2), ("C", 2)), (F(1, 8),) * 8).to_json()
TWO_VAR_FAMILY = ConditionalDistribution(
    (("A", 2), ("B", 2)), (("Y", 2),), (F(1, 4),) * 8
).to_json()



def _chain_point(cards, probs) -> str:
    """Distribution JSON over the chain's X, Z, Y with raw JSON values."""
    return json.dumps({
        "variables": [{"id": n, "card": c} for n, c in zip("XZY", cards)],
        "probs": probs,
    })


@pytest.mark.parametrize(
    "command, dist_text",
    [
        (["check-dist", "CHAIN"], TWO_VARS),
        (["check-dist", "CHAIN"], "7"),
        (["ineq", "triangle"], TWO_VARS),
        (["ineq", "instrumental"], ONE_VAR_FAMILY),
        (["check-dist", "CHAIN"], ONE_VAR_FAMILY),
        (["ineq", "triangle"], THREE_VARS.replace('"B"', '["B"]')),
        (["ineq", "instrumental"], TWO_VAR_FAMILY.replace('"Y"', '{"Y": 1}')),
        (["check-dist", "CHAIN"], _chain_point((2, 2, 2.9), ["1"] + ["0"] * 7)),
        (["check-dist", "CHAIN"], _chain_point((2, 2, "2"), ["1"] + ["0"] * 7)),
        (["check-dist", "CHAIN"], _chain_point((2, 2, True), ["1", "0", "0", "0"])),
        (["check-dist", "CHAIN"], _chain_point((2, 2, 2), [True] + [False] * 7)),
        (["ineq", "instrumental"], json.dumps({
            "variables": [{"id": "A", "card": 2}, {"id": "B", "card": 2}],
            "given": [{"id": "Y", "card": True}], "probs": ["1", "0", "0", "0"],
        })),
    ],
    ids=[
        "vars-differ", "json-number", "triangle-2-vars", "instrumental-1-var",
        "check-dist-1-var", "list-id", "object-given-id", "float-card",
        "string-card", "bool-card", "bool-probs", "bool-given-card",
    ],
)
def test_bad_input_exits_2(tmp_path, capsys, command, dist_text):
    gp = tmp_path / "chain.json"
    gp.write_text(chain().to_json())
    dp = tmp_path / "dist.json"
    dp.write_text(dist_text)
    argv = [str(gp) if a == "CHAIN" else a for a in command] + [str(dp)]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_duplicate_variable_exits_2(tmp_path, capsys):
    """A joint over A, A, B is malformed input, not a triangle violation."""
    dp = tmp_path / "dup.json"
    dp.write_text(json.dumps({
        "variables": [{"id": "A", "card": 2}, {"id": "A", "card": 2}, {"id": "B", "card": 2}],
        "probs": ["1/2", "0", "0", "0", "0", "0", "0", "1/2"],
    }))
    assert run(["ineq", "triangle", str(dp)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: duplicate variable 'A'\n"


def test_ineq_shape_error(tmp_path, capsys):
    prod = Distribution((("A", 2),), (H, H))
    assert run(["ineq", "instrumental", _dist_path(tmp_path, prod)]) == 2


#: ``gdag-lab classify`` stdout, byte for byte: step order and the final
#: graph's edge order are part of the output.
ONE_SIDED_BELL_CLASSIFY = (
    '{"steps": ['
    '{"op": "add-edge-parent-subset", "a": "B", "b": "A"}, '
    '{"op": "remove-edge", "a": "L", "b": "A"}, '
    '{"op": "remove-edge", "a": "L", "b": "B"}, '
    '{"op": "remove-isolated-unobserved", "node": "L"}], '
    '"final": {"nodes": ['
    '{"id": "X", "kind": "observed"}, {"id": "A", "kind": "observed"}, {"id": "B", "kind": "observed"}], '
    '"edges": [["X", "A"], ["B", "A"]]}}\n'
)
SEVEN_NODE_CLASSIFY = (
    '{"steps": ['
    '{"op": "add-edge-unobserved-path", "a": "A", "b": "E"}, '
    '{"op": "add-edge-unobserved-path", "a": "A", "b": "G"}, '
    '{"op": "add-edge-unobserved-path", "a": "B", "b": "D"}, '
    '{"op": "add-edge-unobserved-path", "a": "C", "b": "E"}, '
    '{"op": "add-edge-unobserved-path", "a": "C", "b": "G"}, '
    '{"op": "add-edge-unobserved-path", "a": "D", "b": "G"}, '
    '{"op": "remove-edge", "a": "B", "b": "F"}, '
    '{"op": "remove-edge", "a": "C", "b": "F"}, '
    '{"op": "remove-edge", "a": "A", "b": "C"}, '
    '{"op": "remove-edge", "a": "B", "b": "C"}, '
    '{"op": "remove-edge", "a": "A", "b": "D"}, '
    '{"op": "remove-edge", "a": "B", "b": "D"}, '
    '{"op": "remove-edge", "a": "C", "b": "D"}, '
    '{"op": "remove-edge", "a": "A", "b": "E"}, '
    '{"op": "remove-edge", "a": "B", "b": "E"}, '
    '{"op": "remove-edge", "a": "C", "b": "E"}, '
    '{"op": "remove-edge", "a": "D", "b": "E"}, '
    '{"op": "remove-edge", "a": "A", "b": "F"}, '
    '{"op": "remove-edge", "a": "A", "b": "G"}, '
    '{"op": "remove-edge", "a": "B", "b": "G"}, '
    '{"op": "remove-edge", "a": "C", "b": "G"}, '
    '{"op": "remove-edge", "a": "D", "b": "G"}, '
    '{"op": "remove-edge", "a": "E", "b": "G"}, '
    '{"op": "remove-isolated-unobserved", "node": "A"}, '
    '{"op": "remove-isolated-unobserved", "node": "B"}, '
    '{"op": "remove-isolated-unobserved", "node": "C"}, '
    '{"op": "remove-isolated-unobserved", "node": "D"}, '
    '{"op": "remove-isolated-unobserved", "node": "E"}, '
    '{"op": "remove-isolated-unobserved", "node": "G"}], '
    '"final": {"nodes": [{"id": "F", "kind": "observed"}], "edges": []}}\n'
)


def test_classify_certificate(tmp_path, capsys):
    gp = tmp_path / "osb.json"
    gp.write_text(one_sided_bell_gdag().to_json())
    assert run(["classify", str(gp)]) == 0
    assert capsys.readouterr().out == ONE_SIDED_BELL_CLASSIFY


def test_classify_output_independent_of_hash_seed(tmp_path):
    names = "ABCDEFG"
    g = GDag(
        [(n, NodeKind.OBSERVED if n == "F" else NodeKind.UNOBSERVED) for n in names],
        [tuple(e) for e in ("AC", "AD", "AF", "BC", "BE", "BF", "BG", "CD", "CF", "DE", "EG")],
    )
    gp = tmp_path / "g.json"
    gp.write_text(g.to_json())
    src = str(Path(gdag_lab.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from gdag_lab.cli import run; sys.exit(run(sys.argv[1:]))",
             "classify", str(gp)],
            env=env, capture_output=True, timeout=120, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == SEVEN_NODE_CLASSIFY.encode()


def test_classify_unknown(bell_path, capsys):
    assert run(["classify", bell_path]) == 1
    assert capsys.readouterr().out.strip() == "unknown"


def test_classify_unknown_latent_chain_8_observed(tmp_path, capsys):
    gp = tmp_path / "chain.json"
    gp.write_text(latent_chain(8, True).to_json())
    assert run(["classify", str(gp)]) == 1
    assert capsys.readouterr().out == "unknown\n"


#: ``gdag-lab reduce`` stdout, byte for byte.
REDUCED = {
    "triangle": (
        '{"nodes": [{"id": "A", "kind": "observed"}, {"id": "B", "kind": "observed"}, '
        '{"id": "C", "kind": "observed"}, {"id": "LAB", "kind": "unobserved"}, '
        '{"id": "LAC", "kind": "unobserved"}, {"id": "LBC", "kind": "unobserved"}], '
        '"edges": [["LAB", "A"], ["LAB", "B"], ["LAC", "A"], ["LAC", "C"], ["LBC", "B"], ["LBC", "C"]]}\n'
    ),
    "instrumental": (
        '{"nodes": [{"id": "Y", "kind": "observed"}, {"id": "B", "kind": "observed"}, '
        '{"id": "A", "kind": "observed"}, {"id": "U", "kind": "unobserved"}], '
        '"edges": [["Y", "B"], ["B", "A"], ["U", "B"], ["U", "A"]]}\n'
    ),
    "one-sided-bell": (
        '{"nodes": [{"id": "X", "kind": "observed"}, {"id": "A", "kind": "observed"}, '
        '{"id": "B", "kind": "observed"}], "edges": [["X", "A"], ["B", "A"]]}\n'
    ),
    "junk": (
        '{"nodes": [{"id": "A", "kind": "observed"}, {"id": "B", "kind": "observed"}], '
        '"edges": [["A", "B"]]}\n'
    ),
}
JUNK = GDag(
    [("A", NodeKind.OBSERVED), ("B", NodeKind.OBSERVED), ("L", NodeKind.UNOBSERVED),
     ("M", NodeKind.UNOBSERVED), ("K", NodeKind.UNOBSERVED)],
    [("L", "A"), ("L", "B"), ("A", "M")],
)


@pytest.mark.parametrize(
    "name, g",
    [
        ("triangle", triangle_gdag()),
        ("instrumental", instrumental_gdag()),
        ("one-sided-bell", one_sided_bell_gdag()),
        ("junk", JUNK),
    ],
    ids=["triangle", "instrumental", "one-sided-bell", "junk"],
)
def test_reduce_stdout_pinned(tmp_path, capsys, name, g):
    gp = tmp_path / "g.json"
    gp.write_text(g.to_json())
    assert run(["reduce", str(gp)]) == 0
    assert capsys.readouterr().out == REDUCED[name]


@pytest.mark.parametrize(
    "graph_text",
    [
        '{"nodes": [{"id": "A", "kind": "observed"}, {"id": "B", "kind": "observed"}], '
        '"edges": ["AB"]}',
        '{"nodes": [{"id": null, "kind": "observed"}], "edges": []}',
    ],
    ids=["string-edge", "null-id"],
)
def test_malformed_graph_exits_2(tmp_path, capsys, graph_text):
    gp = tmp_path / "g.json"
    gp.write_text(graph_text)
    assert run(["reduce", str(gp)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_reduce(tmp_path, capsys, bell_path):
    assert run(["reduce", bell_path]) == 0
    g = parse_gdag(capsys.readouterr().out)
    assert g == bell_gdag()  # bell is already fully reduced


def test_census(capsys):
    assert run(["census", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "3,40,40,0"


def test_census_guards(capsys):
    assert run(["census", "--n", "0"]) == 2
    assert run(["census", "--n", "6"]) == 2
    err = capsys.readouterr().err
    assert "--long-run" in err
    assert run(["census", "--n", "7", "--long-run"]) == 2
    assert capsys.readouterr().err == "error: census supports 1 <= n <= 6\n"


def test_entropic_compare(tmp_path, capsys):
    gp = tmp_path / "osb.json"
    gp.write_text(one_sided_bell_gdag().to_json())
    assert run(["entropic", gp.as_posix(), "--compare"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"classical", "independence", "not_implied_by_independence"}
    assert out["classical"]["variables"] == ["X", "A", "B"]


def test_entropic_size_guard(tmp_path, capsys):
    from gdag_lab.graph import GDag, NodeKind

    g = GDag([(f"N{i}", NodeKind.OBSERVED) for i in range(7)])
    gp = tmp_path / "big.json"
    gp.write_text(g.to_json())
    assert run(["entropic", str(gp)]) == 2
    assert "long-run" in capsys.readouterr().err


def test_missing_file_and_bad_usage(capsys):
    assert run(["dsep", "/no/such/file", "--x", "A", "--y", "B"]) == 2
    assert run(["no-such-command"]) == 2
    assert run([]) == 2


def test_module_entry_point_exits_2_on_bad_input(tmp_path):
    gp = tmp_path / "bad.json"
    gp.write_text('{"nodes": [{"id": "A", "kind": "observed"}], "edges": [["A", "B"]]}')
    src = str(Path(gdag_lab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "gdag_lab.cli", "entropic", str(gp)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: edge ('A', 'B') references unknown node\n"
