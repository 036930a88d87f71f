"""Regenerate perfbench/reference.json from the current sources.

    python3 perfbench/pin.py   # pin seed 0, cross-validate, write

Every outcome is cross-validated before it is written: fusion products
against generalized Demazure modules of the conjugate partition,
rectangular Demazure modules against the matching fusion products,
degree collapses against products of simple characters, and every
verify-suite report and relation check must pass.  A failed
cross-check aborts without writing.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from krfl import demazure, modules  # noqa: E402
from krfl.typea import Partition, char_simple, fundamental_weight, weight_scale  # noqa: E402
from workloads import WORKLOADS, char_sha, sha256_text  # noqa: E402


def simple_product(lams):
    out = char_simple(lams[0])
    for lam in lams[1:]:
        out = out * char_simple(lam)
    return out


def _graded(m):
    return modules.graded_character(m)


def reference_character(words, args):
    """Graded character of an item's module built by an independent
    route, provided its degree collapse is the expected tensor product
    of simple characters; False if that collapse check fails, None for
    routes with no cross-check.

    fusion(xi) is compared with the generalized Demazure module of the
    conjugate partition and vice versa; a level-ell rectangle
    ell*m*omega_i with the fusion of m parts of size ell.  A local Weyl
    module has no second route in the package, so only its collapse to
    the product of fundamental characters is checked.
    """
    route, nums = words[0], [int(w) for w in words[1:] if w.isdigit()]
    if route in ("fusion", "fusion_product", "check_gradrel_relations"):
        n, i = nums
        gc = _graded(demazure.gen_demazure(n, i, Partition(args).conjugate().parts))
        lams = [weight_scale(c, fundamental_weight(n, i)) for c in args]
    elif route in ("gendemazure", "gen_demazure"):
        n, i = nums
        conj = Partition(args).conjugate().parts
        gc = _graded(modules.fusion_product(n, i, conj))
        lams = [weight_scale(c, fundamental_weight(n, i)) for c in conj]
    elif route in ("rect_demazure", "demazure"):
        n, ell = nums
        (i,) = [j + 1 for j, c in enumerate(args) if c]
        m = args[i - 1] // ell
        gc = _graded(modules.fusion_product(n, i, (ell,) * m))
        lams = [weight_scale(ell, fundamental_weight(n, i))] * m
    elif route == "local_weyl":
        (n,) = nums
        gc = _graded(demazure.local_weyl(n, args))
        lams = [fundamental_weight(n, j + 1) for j, c in enumerate(args) for _ in range(c)]
    else:
        return None
    if lams and gc.collapse() != simple_product(lams):
        return False
    return gc


def _fields(key):
    """(words, tuple or None) of an item key such as 'rect_demazure 3 2 (0, 4, 0)'."""
    if " (" not in key:
        return key.split(" "), None
    head, _, tup = key.rpartition(" (")
    return head.split(" "), ast.literal_eval("(" + tup)


def validate(name, outcomes):
    """Keys of the outcomes that fail their cross-check."""
    bad = []
    for key, out in outcomes.items():
        if "error" in out or out.get("report") not in (None, []):
            ok = False
        elif name == "verify-suite":
            ok = out["rc"] == 0 if key == "output" else out["status"] == "pass"
        elif name == "char-queries":
            gc = reference_character(*_fields(key))
            cli_bytes = json.dumps(gc.to_json(), indent=2) + "\n" if gc else ""
            ok = (out["rc"] == 0 and out["same_as_cold"]
                  and out["sha256"] == sha256_text(cli_bytes))
        else:
            words, args = _fields(key)
            if words[0] == "find_nonrelation_witness":
                # a single factor has truncation 0, so no witness exists
                ok = (out["witness"] is None) == (len(args) < 2)
            else:
                gc = reference_character(words[1:] if words[0] == "check_axioms" else words, args)
                ok = gc is None or (gc is not False and out["char"] == char_sha(gc))
        if not ok:
            bad.append(key)
    return bad


def one_pass(name):
    """Outcomes of one untimed pass of a workload on seed 0."""
    work_root = HERE.parent / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="pin-", dir=work_root) as tmp:
        wl = WORKLOADS[name](0, None, tmp)
        wl.run_pass(wl.setup())
    outcomes = {it.key: it.outcome for it in wl.items}
    if name == "verify-suite":
        outcomes["output"] = wl.output
    return outcomes


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    path = HERE / "reference.json"
    pinned = {}
    for name in WORKLOADS:
        outcomes = one_pass(name)
        bad = validate(name, outcomes)
        if bad:
            print(f"{name}: cross-check failed for {bad}", file=sys.stderr)
            return 1
        print(f"{name}: {len(outcomes)} outcomes pinned")
        pinned[name] = outcomes
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
