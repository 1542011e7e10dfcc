"""The four workloads and their output checks.

The checks do not trust the code under test: expected values come from the
paper's closed forms and the acceptance criteria, recomputed here, and for
jobs with fixed inputs the output bytes must match the digest recorded at
the seed commit (digests.json, written by record_digests.py).
See README.md for why each workload was chosen.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Callable, Dict, List, Optional

from jobs import Job, cli_call
from schur_ed import clifford

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

# CPU-time deadline of every job.  Generous (each job takes well under 10 s
# at the seed), so only a hang or a large slowdown trips it.
DEADLINE_S = 30.0
TRACE_BATCH_TRIALS = 100  # acceptance criterion 10's batch size
TRACE_DEGREES = range(4, 13)
# A few trials take far longer than the rest, so one batch per degree makes
# the pass time depend on the seed: 0.15 of the median between seeds.
TRACE_BATCHES_PER_DEGREE = 3

# acceptance criterion 7: the three-row table for n = 4..16, byte for byte
CRITERION_7_TSV = (
    "n\t4\t5\t6\t7\t8\t9\t10\t11\t12\t13\t14\t15\t16\n"
    "ed(A_n)\t2\t2\t3\t4\t4-5\t4-6\t5-7\t6-8\t6-9\t6-10\t7-11\t8-12\t8-13\n"
    "ed(cover A_n; 2)\t2\t2\t2\t2\t8\t8\t8\t8\t16\t16\t32\t32\t128\n"
    "ed(cover A_n)\t2\t2\t4\t4\t8\t8-14\t8-15\t8-16\t16-25\t16-26"
    "\t32-43\t32-44\t128\n"
)
TABLE1_ROWS = ("ed(A_n)", "ed(cover A_n; 2)", "ed(cover A_n)")

Check = Callable[[str], Optional[str]]


def ed2_formula(n: int, which: str) -> int:
    """2^floor((n-s)/2) (sym) or 2^floor((n-s-1)/2) (alt), s = popcount n."""
    s = bin(n).count("1")
    return 1 << ((n - s - (which == "alt")) // 2)


def relation_count(n: int) -> int:
    """z^2, a square and a commutator per generator, one relation per
    distant pair, one braid relation per neighbouring pair."""
    return 1 + 2 * (n - 1) + (n - 2) * (n - 3) // 2 + (n - 2)


def _json_check(body: Callable[[dict], Optional[str]]) -> Check:
    def check(out: str) -> Optional[str]:
        try:
            data = json.loads(out)
        except ValueError:
            return "output is not JSON"
        return body(data)
    return check


def _cover_verify_check(n: int, variant: str) -> Check:
    def body(d: dict) -> Optional[str]:
        if d.get("ok") is not True:
            return "presentation not ok"
        if d.get("order") != 2 * math.factorial(n):
            return f"order {d.get('order')} != 2*{n}!"
        if d.get("order_method") != "closure":
            return "order not established by closure"
        rels = d.get("relations", [])
        if len(rels) != relation_count(n) or not all(r["ok"] for r in rels):
            return "relation list incomplete or failing"
        if (d.get("n"), d.get("variant")) != (n, variant):
            return "wrong group echoed"
        return None
    return _json_check(body)


def _spin_check(n: int) -> Check:
    def check(out: str) -> Optional[str]:
        flags = json.loads(out)
        # the cover's relations minus the n-1 commutators [z, g_i]
        if len(flags) != relation_count(n) - (n - 1):
            return "spin relation list has the wrong length"
        if not all(ok is True for _, ok in flags):
            return "a spin relation fails"
        return None
    return check


def _chartab_check(n: int, order: int, classes: int) -> Check:
    def body(d: dict) -> Optional[str]:
        if d.get("order") != order or len(d.get("classes", ())) != classes:
            return "wrong order or class count"
        if sum(c["size"] for c in d["classes"]) != order:
            return "class sizes do not sum to the order"
        if sum(x * x for x in d.get("degrees", ())) != order:
            return "squared degrees do not sum to the order"
        if d.get("min_faithful_dim") != ed2_formula(n, "sym"):
            return f"min_faithful_dim {d.get('min_faithful_dim')} != formula"
        return None
    return _json_check(body)


def _ed2_check(n: int, which: str) -> Check:
    def body(d: dict) -> Optional[str]:
        want = ed2_formula(n, which)
        if d.get("ed2_computed") != want or d.get("ed2_formula") != want:
            return f"ed2 computed/formula {d.get('ed2_computed')}/" \
                   f"{d.get('ed2_formula')} != {want}"
        return None
    return _json_check(body)


def _table1_check(verify_max: int) -> Check:
    def body(d: dict) -> Optional[str]:
        rows = [["n"] + [str(n) for n in d["n"]]]
        rows += [[label] + d[label] for label in TABLE1_ROWS]
        if "\n".join("\t".join(r) for r in rows) + "\n" != CRITERION_7_TSV:
            return "table rows differ from criterion 7"
        want = {str(n): ed2_formula(n, "alt")
                for n in range(4, verify_max + 1)}
        if d.get("verified") != want:
            return "verified row 2 entries differ from the formula"
        return None
    return _json_check(body)


def _trace_check_check(n: int, trials: int) -> Check:
    # every trial passing fixes the output completely, byte for byte
    want = json.dumps({"n": n, "s": bin(n).count("1"), "trials": trials,
                       "contains_s_ones": trials, "disc_matches": trials},
                      sort_keys=True, indent=2) + "\n"

    def check(out: str) -> Optional[str]:
        return None if out == want else "not every trial passed"
    return check


def _spin_call(n: int, variant: str):
    def call():
        # looked up at call time, so a traced run sees its wrapper
        flags = clifford.verify_spin_representation(n, variant)
        return 0, json.dumps(flags) + "\n"
    return call


# ---------------------------------------------------------------------------
# workloads: build(name, seed) -> [Job], the same jobs for every pass
# ---------------------------------------------------------------------------

def presentations(seed: int, digests) -> List[Job]:
    jobs = []
    for n in range(4, 8):
        for v in ("plus", "minus"):
            name = f"cover-verify-{n}-{v}"
            jobs.append(Job(name, cli_call(["--seed", seed, "cover", "verify",
                                            "-n", n, "--variant", v]),
                            _cover_verify_check(n, v), DEADLINE_S,
                            _digest(digests, name)))
    for n in range(4, 11):
        for v in ("plus", "minus"):
            name = f"spin-{n}-{v}"
            jobs.append(Job(name, _spin_call(n, v), _spin_check(n),
                            DEADLINE_S, _digest(digests, name)))
    return jobs


def sylow_n12(seed: int, digests) -> List[Job]:
    # the seed reaches the program as chartab's Dixon seed; the printed
    # table must not depend on it
    return [
        Job("chartab-12-sylow2",
            cli_call(["--seed", seed, "chartab", "-n", 12,
                      "--subgroup", "sylow2"]),
            _chartab_check(12, 2048, 101), DEADLINE_S,
            _digest(digests, "chartab-12-sylow2")),
        Job("ed2-12-alt-computed",
            cli_call(["--seed", seed, "ed2", "-n", 12, "--which", "alt",
                      "--computed"]),
            _ed2_check(12, "alt"), DEADLINE_S,
            _digest(digests, "ed2-12-alt-computed")),
    ]


def table_sweep(seed: int, digests) -> List[Job]:
    jobs = []
    for v in ("plus", "minus"):
        name = f"table1-verify11-{v}"
        jobs.append(Job(name, cli_call(["--seed", seed, "table1",
                                        "--verify-max", 11, "--variant", v]),
                        _table1_check(11), DEADLINE_S,
                        _digest(digests, name)))
    return jobs


def trace_forms(seed: int, digests) -> List[Job]:
    """The same seeded inputs in every pass, so each job's repetitions can
    be compared.  Degrees above 12 are left out: single trials there hang
    in Brent rho on some seeds (see README.md)."""
    rng = random.Random(f"trace-forms/{seed}")
    return [
        Job(f"trace-check-{n}x{TRACE_BATCH_TRIALS}-{b}",
            cli_call(["--seed", rng.getrandbits(32), "trace-check",
                      "-n", n, "--trials", TRACE_BATCH_TRIALS]),
            _trace_check_check(n, TRACE_BATCH_TRIALS), DEADLINE_S)
        for n in TRACE_DEGREES for b in range(TRACE_BATCHES_PER_DEGREE)]


WORKLOADS = {
    "presentations": presentations,
    "sylow-n12": sylow_n12,
    "table-sweep": table_sweep,
    "trace-forms": trace_forms,
}


def _digest(digests: Optional[Dict[str, str]], name: str) -> Optional[str]:
    """None only while recording; a job missing from the file never
    matches."""
    if digests is None:
        return None
    return digests.get(name, "missing")


def build(name: str, seed: int, record: bool = False
          ) -> List[Job]:
    digests = None
    if not record:
        with open(DIGESTS_PATH) as f:
            digests = json.load(f)
    return WORKLOADS[name](seed, digests)
