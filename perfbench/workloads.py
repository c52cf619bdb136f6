"""Benchmark workloads, frozen reference bounds and the correctness check.

Each case is one `certground` command line, run in-process through
`certground.cli.run`. The workload seed is appended as `--seed`; it moves the
Lanczos start vector and the product-state multistart, while the models stay
fixed. Every certified bound a case prints is checked against a frozen
reference at tolerance TOL, and every Heisenberg lower bound against the exact
density EMIN.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

TOL = 1e-8

# exact Heisenberg ground-state energy density, e_min = 1/2 - 2 ln 2
EMIN = 0.5 - 2.0 * math.log(2.0)

# lambda_min of the open-boundary Heisenberg chain h_m, m sites (the frozen
# dense-diagonalization values of the repository's test suite)
CHAIN = {
    2: -1.5,
    3: -2.0,
    4: -3.232050807569,
    5: -3.855772506636,
    6: -4.987154267776,
    7: -5.672479361373,
    8: -6.749865197376,
    9: -7.472643412759,
    10: -8.516070414566,
    11: -9.264186604719,
    12: -10.284181265681,
    13: -11.050644194167,
    14: -12.053449323724,
    15: -12.833840983587,
}


def chain_bound(m: int) -> float:
    """Anderson density bound lambda_min(h_m)/(m-1) of the Heisenberg chain."""
    return CHAIN[m] / (m - 1)


@dataclass(frozen=True)
class Case:
    argv: tuple
    reference: dict     # bound label -> frozen value

    @property
    def model(self) -> tuple:
        """(builtin name, params) as the command line gives them."""
        argv = list(self.argv)
        params = argv[argv.index("--params") + 1] if "--params" in argv else ""
        return argv[argv.index("--model") + 1], params

    @property
    def heisenberg(self) -> bool:
        return self.model[0] == "heisenberg"


@dataclass(frozen=True)
class Workload:
    why: str
    cases: tuple


def _case(cmd: str, reference: dict) -> Case:
    return Case(tuple(cmd.split()), reference)


# Sizes keep one pass to 1-3 s, so a 20 s run holds enough passes for a steady
# median. References other than chain_bound were frozen from a seed-0 run.
WORKLOADS = {
    "anderson-sweep": Workload(
        why="Heisenberg Anderson sweep m=2..11 with --jobs 1: many small patches "
            "on the dense eigh side of DENSE_CAP",
        cases=(
            _case("sweep --method anderson --model heisenberg --m 2..11 --jobs 1",
                  {f"m={m}": chain_bound(m) for m in range(2, 12)}),
        ),
    ),
    "anderson-large": Workload(
        why="Lanczos side of the dense/Lanczos switch (m=16..17), the product-state "
            "upper bound via sandwich, and a complex model",
        cases=(
            _case("anderson --model heisenberg --m 17", {"lower": -0.913426088547}),
            _case("sandwich --model tfim --params 1 --anderson-m 16",
                  {"lower": -1.28167047788, "upper": -1.25}),
            _case("anderson --model random_twosite --params 3 --m 13",
                  {"lower": -1.22729507966}),
        ),
    ),
    "marginal": Workload(
        why="marginal-problem SDP: two blocks, many dependent constraints, "
            "prune-and-restart, real embedding of a complex model; no eigensolver",
        cases=(
            _case("marginal --model heisenberg --m 5 --s 2", {"lower": -0.934258545983}),
            _case("marginal --model heisenberg --m 6 --s 1", {"lower": -0.934258545911}),
            _case("marginal --model random_twosite --params 3 --m 4 --s 2", {"lower": -1.2803362608}),
        ),
    ),
    "moment": Workload(
        why="moment-matrix SDP: one real-embedded 128 block with independent "
            "constraints, Pauli structure building; no eigensolver",
        cases=(
            _case("moment --model heisenberg --l 3", {"lower": -1.00000000037}),
            _case("moment --model tfim --params 1 --l 3", {"lower": -1.33333333435}),
            _case("moment --model xxz --params 0.5 --l 3", {"lower": -0.843070331207}),
        ),
    ),
}


def bounds(argv, report: dict) -> dict:
    """The certified numbers one command's JSON report carries, by label."""
    command = argv[0]
    if command == "sweep":
        return {f"m={row['m']}": row["certified_bound"] for row in report["rows"]}
    if command == "sandwich":
        return {"lower": report["lower"], "upper": report["upper"]}
    return {"lower": report["lower"]}


def check(case: Case, exit_code: int, stdout: str) -> list:
    """Reasons the case failed; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        got = bounds(case.argv, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as e:
        return [f"unreadable report: {e!r}"]
    problems = []
    if set(got) != set(case.reference):
        problems.append(f"bound labels {sorted(got)} != {sorted(case.reference)}")
    for label, ref in case.reference.items():
        value = got.get(label)
        if value is None or not abs(value - ref) <= TOL:
            problems.append(f"{label}: {value!r} differs from reference {ref!r}")
    lowers = [v for k, v in got.items() if k != "upper"]
    if case.heisenberg:
        problems += [f"lower bound {v!r} above e_min {EMIN!r}" for v in lowers
                     if not v <= EMIN]
    if "upper" in got:
        problems += [f"lower bound {v!r} above upper {got['upper']!r}" for v in lowers
                     if not v <= got["upper"]]
    return problems
