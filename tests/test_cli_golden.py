"""The CLI's exact stdout and exit code, pinned per subcommand and format.

Expected outputs were written out from the command line as it stood
before its writers were merged (the sl_4 adjoint character before
char_simple moved to the dominant chamber): JSON as the decoded document (the test
re-encodes it with indent=2, so key order and layout are pinned), CSV
and table output line by line, trailing spaces included.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import krfl
from krfl.cli import main

SRC = Path(krfl.__file__).resolve().parent.parent

QFACTOR_INPUT = [
    {"node": 1, "exp": 0, "mult": 2},
    {"node": 1, "exp": 2, "mult": 1},
]

COMMANDS = {
    "char": ["char", "--rank", "1", "--weight", "2"],
    "char-adjoint": ["char", "--rank", "3", "--weight", "1,0,1"],
    "fusion": ["fusion", "--rank", "1", "--node", "1", "--partition", "1,2",
               "--no-cache"],
    "demazure": ["demazure", "--rank", "1", "--ell", "2", "--lambda", "2",
                 "--no-cache"],
    "gendemazure": ["gendemazure", "--rank", "1", "--node", "1",
                    "--partition", "1,2", "--no-cache"],
    "qfactor": ["qfactor", "--rank", "2", "--file", "{pi}"],
    "verify-main": ["verify-main", "--rank", "1", "--node", "1",
                    "--partition", "1,1"],
    "verify-main-cap": ["verify-main", "--rank", "1", "--node", "1",
                        "--partition", "1,1", "--cap", "1"],
    "verify-suite": ["verify-suite", "--max-rank", "1", "--max-size", "2"],
}

# the fusion of (2, 1) and the generalized Demazure module of its conjugate
FUSION_21_JSON = {
    "rank": 1,
    "entries": [
        {"weight": [-3], "degree": 0, "mult": 1},
        {"weight": [-1], "degree": 0, "mult": 1},
        {"weight": [1], "degree": 0, "mult": 1},
        {"weight": [3], "degree": 0, "mult": 1},
        {"weight": [-1], "degree": 1, "mult": 1},
        {"weight": [1], "degree": 1, "mult": 1},
    ],
}
FUSION_21_CSV = [
    "weight,degree,mult",
    "-3,0,1",
    "-1,0,1",
    "1,0,1",
    "3,0,1",
    "-1,1,1",
    "1,1,1",
]
FUSION_21_TABLE = [
    "weight  degree  mult",
    "(-3,)   0       1   ",
    "(-1,)   0       1   ",
    "(1,)    0       1   ",
    "(3,)    0       1   ",
    "(-1,)   1       1   ",
    "(1,)    1       1   ",
]


# the adjoint module of sl_4: twelve roots and the zero weight three times
ADJOINT = [
    ((-2, 1, 0), 1),
    ((-1, -1, 1), 1),
    ((-1, 0, -1), 1),
    ((-1, 1, 1), 1),
    ((-1, 2, -1), 1),
    ((0, -1, 2), 1),
    ((0, 0, 0), 3),
    ((0, 1, -2), 1),
    ((1, -2, 1), 1),
    ((1, -1, -1), 1),
    ((1, 0, 1), 1),
    ((1, 1, -1), 1),
    ((2, -1, 0), 1),
]


def _passed(name, params):
    return {"name": name, "params": params, "status": "pass", "details": []}


XI_11 = {"rank": 1, "node": 1, "xi": [1, 1]}
XI_1 = {"rank": 1, "node": 1, "xi": [1]}
XI_2 = {"rank": 1, "node": 1, "xi": [2]}

GOLDEN = {
    ("char", "json"): {
        "rank": 1,
        "entries": [
            {"weight": [-2], "mult": 1},
            {"weight": [0], "mult": 1},
            {"weight": [2], "mult": 1},
        ],
    },
    ("char", "csv"): ["weight,mult", "-2,1", "0,1", "2,1"],
    ("char", "table"): [
        "weight  mult",
        "(-2,)   1   ",
        "(0,)    1   ",
        "(2,)    1   ",
    ],
    ("char-adjoint", "json"): {
        "rank": 3,
        "entries": [{"weight": list(w), "mult": m} for w, m in ADJOINT],
    },
    ("char-adjoint", "csv"): [
        "weight,mult",
        "-2 1 0,1",
        "-1 -1 1,1",
        "-1 0 -1,1",
        "-1 1 1,1",
        "-1 2 -1,1",
        "0 -1 2,1",
        "0 0 0,3",
        "0 1 -2,1",
        "1 -2 1,1",
        "1 -1 -1,1",
        "1 0 1,1",
        "1 1 -1,1",
        "2 -1 0,1",
    ],
    ("char-adjoint", "table"): [
        "weight       mult",
        "(-2, 1, 0)   1   ",
        "(-1, -1, 1)  1   ",
        "(-1, 0, -1)  1   ",
        "(-1, 1, 1)   1   ",
        "(-1, 2, -1)  1   ",
        "(0, -1, 2)   1   ",
        "(0, 0, 0)    3   ",
        "(0, 1, -2)   1   ",
        "(1, -2, 1)   1   ",
        "(1, -1, -1)  1   ",
        "(1, 0, 1)    1   ",
        "(1, 1, -1)   1   ",
        "(2, -1, 0)   1   ",
    ],
    ("fusion", "json"): FUSION_21_JSON,
    ("fusion", "csv"): FUSION_21_CSV,
    ("fusion", "table"): FUSION_21_TABLE,
    ("demazure", "json"): {
        "rank": 1,
        "entries": [
            {"weight": [-2], "degree": 0, "mult": 1},
            {"weight": [0], "degree": 0, "mult": 1},
            {"weight": [2], "degree": 0, "mult": 1},
        ],
    },
    ("demazure", "csv"): ["weight,degree,mult", "-2,0,1", "0,0,1", "2,0,1"],
    ("demazure", "table"): [
        "weight  degree  mult",
        "(-2,)   0       1   ",
        "(0,)    0       1   ",
        "(2,)    0       1   ",
    ],
    ("gendemazure", "json"): FUSION_21_JSON,
    ("gendemazure", "csv"): FUSION_21_CSV,
    ("gendemazure", "table"): FUSION_21_TABLE,
    ("qfactor", "json"): [
        {"node": 1, "center": 1, "len": 2},
        {"node": 1, "center": 0, "len": 1},
    ],
    ("qfactor", "csv"): ["node,center,len", "1,1,2", "1,0,1"],
    ("qfactor", "table"): [
        "node  center  len",
        "1     1       2  ",
        "1     0       1  ",
    ],
    ("verify-main", "json"): [_passed("main-isomorphism", XI_11)],
    ("verify-main", "csv"): [
        "name,status,params,details",
        'main-isomorphism,pass,"{""rank"": 1, ""node"": 1, ""xi"": [1, 1]}",[]',
    ],
    ("verify-main", "table"): [
        "status  name              params                   note",
        "pass    main-isomorphism  rank=1 node=1 xi=[1, 1]      ",
    ],
    ("verify-main-cap", "json"): [
        {
            "name": "main-isomorphism",
            "params": XI_11,
            "status": "skip",
            "details": [
                {"check": "ambient dimension cap", "expected": "<= 1", "got": 4}
            ],
        }
    ],
    ("verify-main-cap", "csv"): [
        "name,status,params,details",
        'main-isomorphism,skip,"{""rank"": 1, ""node"": 1, ""xi"": [1, 1]}",'
        '"[{""check"": ""ambient dimension cap"", '
        '""expected"": ""<= 1"", ""got"": 4}]"',
    ],
    ("verify-main-cap", "table"): [
        "status  name              params                   note                 ",
        "skip    main-isomorphism  rank=1 node=1 xi=[1, 1]  ambient dimension cap",
    ],
    ("verify-suite", "json"): [
        _passed("block-dimensions", XI_11),
        _passed("block-dimensions", XI_1),
        _passed("block-dimensions", XI_2),
        _passed("block-order", XI_11),
        _passed("block-order", XI_1),
        _passed("block-order", XI_2),
        _passed("length-additivity", {"rank": 1, "samples": 100, "seed": 0}),
        _passed("main-isomorphism", XI_11),
        _passed("main-isomorphism", XI_1),
        _passed("main-isomorphism", XI_2),
    ],
    ("verify-suite", "csv"): [
        "name,status,params,details",
        'block-dimensions,pass,"{""rank"": 1, ""node"": 1, ""xi"": [1, 1]}",[]',
        'block-dimensions,pass,"{""rank"": 1, ""node"": 1, ""xi"": [1]}",[]',
        'block-dimensions,pass,"{""rank"": 1, ""node"": 1, ""xi"": [2]}",[]',
        'block-order,pass,"{""rank"": 1, ""node"": 1, ""xi"": [1, 1]}",[]',
        'block-order,pass,"{""rank"": 1, ""node"": 1, ""xi"": [1]}",[]',
        'block-order,pass,"{""rank"": 1, ""node"": 1, ""xi"": [2]}",[]',
        'length-additivity,pass,"{""rank"": 1, ""samples"": 100, ""seed"": 0}",[]',
        'main-isomorphism,pass,"{""rank"": 1, ""node"": 1, ""xi"": [1, 1]}",[]',
        'main-isomorphism,pass,"{""rank"": 1, ""node"": 1, ""xi"": [1]}",[]',
        'main-isomorphism,pass,"{""rank"": 1, ""node"": 1, ""xi"": [2]}",[]',
    ],
    ("verify-suite", "table"): [
        "status  name               params                     note",
        "pass    block-dimensions   rank=1 node=1 xi=[1, 1]        ",
        "pass    block-dimensions   rank=1 node=1 xi=[1]           ",
        "pass    block-dimensions   rank=1 node=1 xi=[2]           ",
        "pass    block-order        rank=1 node=1 xi=[1, 1]        ",
        "pass    block-order        rank=1 node=1 xi=[1]           ",
        "pass    block-order        rank=1 node=1 xi=[2]           ",
        "pass    length-additivity  rank=1 samples=100 seed=0      ",
        "pass    main-isomorphism   rank=1 node=1 xi=[1, 1]        ",
        "pass    main-isomorphism   rank=1 node=1 xi=[1]           ",
        "pass    main-isomorphism   rank=1 node=1 xi=[2]           ",
    ],
}


def _expected_stdout(fmt, golden):
    if fmt == "json":
        return json.dumps(golden, indent=2) + "\n"
    end = "\r\n" if fmt == "csv" else "\n"
    return "".join(line + end for line in golden)


def _argv(command, fmt, tmp_path):
    pi = tmp_path / "pi.json"
    pi.write_text(json.dumps(QFACTOR_INPUT))
    return [a.format(pi=pi) for a in COMMANDS[command]] + ["--format", fmt]


@pytest.mark.parametrize("command,fmt", sorted(GOLDEN), ids="-".join)
def test_stdout_and_exit_code_are_pinned(command, fmt, tmp_path, capsys):
    assert main(_argv(command, fmt, tmp_path)) == 0
    captured = capsys.readouterr()
    assert captured.out == _expected_stdout(fmt, GOLDEN[command, fmt])
    assert captured.err == ""


def _run_module(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), KRFL_CACHE_DIR=str(tmp_path / "cache"))
    return subprocess.run(
        [sys.executable, "-m", "krfl", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


def test_python_dash_m_matches_in_process_main(tmp_path, capsys):
    argv = _argv("fusion", "json", tmp_path)
    proc = _run_module(argv, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out
    assert proc.stdout == _expected_stdout("json", FUSION_21_JSON)


def test_python_dash_m_bad_input_exits_two_with_one_line(tmp_path):
    argv = ["fusion", "--rank", "2", "--node", "3", "--partition", "1"]
    proc = _run_module(argv, tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("krfl: error: ")


def _in_process(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse: --help and bad arguments
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


FUSION_21 = ["fusion", "--rank", "2", "--node", "1", "--partition", "2,1",
             "--no-cache", "--format", "json"]

# (argv, exit code) in order, run in one process on the parser that main
# builds at its first call
SEQUENCES = {
    # leaked points would not fit the three parts of the second call
    "points-then-none": [
        (FUSION_21 + ["--points", "0,2"], 0),
        (FUSION_21[:6] + ["1,1,1"] + FUSION_21[7:], 0),
    ],
    "argparse-error-then-query": [
        (["fusion", "--rank", "1", "--node", "1", "--partition", "1",
          "--points", "abc", "--no-cache"], 2),
        (["fusion", "--rank", "1"], 2),
        (FUSION_21, 0),
    ],
    "query-then-help": [
        (FUSION_21, 0), (["--help"], 0), (["fusion", "--help"], 0), (FUSION_21, 0),
    ],
}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_consecutive_calls_match_fresh_processes(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the width
    for argv, rc in SEQUENCES[name]:
        proc = _run_module(argv, tmp_path)
        assert proc.returncode == rc, (argv, proc.stderr)
        assert _in_process(argv, capsys) == (rc, proc.stdout, proc.stderr), argv
