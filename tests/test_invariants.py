"""Engine invariants raise InvariantError, also under `python -O`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import krfl
import krfl.modules
from krfl import InvariantError

SRC = Path(krfl.__file__).resolve().parent.parent

# Each case breaks one closure and must still raise InvariantError.
BROKEN_CLOSURES = """
from fractions import Fraction
import krfl.modules as M
from krfl import InvariantError

def pair():
    v = M.simple_gmodule(2, (1, 0))
    return M.tensor_modules([M.evaluation_module(v, 0), M.evaluation_module(v, 1)])

def truncation_too_small():
    t = pair()
    t.trunc = 0  # the t^1 action is needed to reach the second string
    M.cyclic_submodule(t, {t.cyclic_index: Fraction(1)})

def lowering_at_one_node_only():
    m = M.fusion_product(2, 1, (1,))  # graded, so no truncation check runs
    real = M._lowering_gens
    M._lowering_gens = lambda rank, powers: real(1, powers)
    try:
        sub = M.cyclic_submodule(m, {m.cyclic_index: Fraction(1)})
    finally:
        M._lowering_gens = real
    sub.matrix("f", 2, 0)

def dependent_fill_row():
    # every fill row at a weight made from the first source row alone:
    # V(2,1) has two rows at (1, 0), so its fill at (-1, 1) repeats one
    real = M._reflection_fill
    M._reflection_fill = lambda ech, rows, *rest: real(ech, [rows[0]] * len(rows), *rest)
    try:
        m = M.simple_gmodule(2, (2, 1))  # counts rows, reads none of them
    finally:
        M._reflection_fill = real
    m.matrix("e", 1, 0)

for case in (truncation_too_small, lowering_at_one_node_only, dependent_fill_row):
    try:
        case()
    except InvariantError as exc:
        print(case.__name__, "raised:", exc)
    else:
        print(case.__name__, "did not raise")
"""


def _run(*flags):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", BROKEN_CLOSURES],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout.splitlines()


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_broken_closure_raises(flags):
    assert _run(*flags) == [
        "truncation_too_small raised: truncated generator set failed to close",
        "lowering_at_one_node_only raised: closure is not action stable",
        "dependent_fill_row raised: appended row lies in the span of its block",
    ]


def test_no_assert_statements_left_in_engine():
    for path in sorted(Path(krfl.__file__).parent.glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            assert not line.lstrip().startswith("assert "), f"{path.name}: {line}"


def test_invariant_error_is_exported():
    assert krfl.InvariantError is InvariantError
    assert issubclass(InvariantError, RuntimeError)
    assert krfl.modules.InvariantError is InvariantError
