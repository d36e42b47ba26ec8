"""The benchmark's four workloads.

Each workload draws its inputs from its own seeded generator (``gen.py``),
calls the program through module attributes (so that the traced run's
wrappers see every call), and checks each output against an answer that
does not come from the code under test.

An op is the unit each rate and latency counts.  ``run`` performs one
request of the closed loop and is the only timed part; ``next_input`` and
``check`` run outside the timed region.
"""

from __future__ import annotations

import io
import random
from pathlib import Path

from graded_darboux import cartan, cli, darboux
from graded_darboux.grexpr import equality, expr

import gen

MANIFESTS = ("cylinder", "theta", "eta", "liouville", "counterexample",
             "thermodynamics")


class Workload:
    name = ""
    ops_per_request = 1
    round_size = 1          # requests that together cover the input mix once

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.seed = seed
        self.root = root
        self.out_dir = out_dir
        self.rng = random.Random(seed)
        self.count = 0

    def prepare(self):
        """Set-up work that precedes the first request."""

    def next_input(self):
        inp = self.make_input(self.count)
        self.count += 1
        return inp

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list:
        """One entry per op in the request: None if correct, else the reason."""
        raise NotImplementedError

    def label(self, inp):
        """Name of a metric that reports this input's median latency, if any."""
        return None


class CliManifests(Workload):
    """Round-robin over the six shipped manifests; one op is one ``cli.run``."""

    name = "cli-manifests"
    round_size = len(MANIFESTS)

    def prepare(self):
        mdir = self.root / "src" / "graded_darboux" / "manifests"
        self.paths = [mdir / f"{m}.json" for m in MANIFESTS]
        for p in self.paths:
            p.read_bytes()
        self.first_report = {}

    def make_input(self, i):
        k = i % len(MANIFESTS)
        return MANIFESTS[k], self.paths[k], self.out_dir / f"{MANIFESTS[k]}.json"

    def run(self, inp):
        _, path, report = inp
        return cli.run(str(path), json_out=str(report), seed=self.seed,
                       stream=io.StringIO())

    def label(self, inp):
        return f"manifest_ms.{inp[0]}"

    def check(self, inp, code):
        name, _, report = inp
        if code != 0:
            return [f"{name}: exit code {code} (an expect entry failed)"]
        blob = report.read_bytes()
        first = self.first_report.setdefault(name, blob)
        if blob != first:
            return [f"{name}: report differs from the first one of this run"]
        return [None]


class CalculusIdentities(Workload):
    """Criterion 7's mix, round-robin: d∘d = 0, the Cartan formula, graded
    Leibniz and the operator commutator, each decided by exact ``==``."""

    name = "calculus-identities"

    def make_input(self, i):
        kind = gen.IDENTITY_KINDS[i % len(gen.IDENTITY_KINDS)]
        case = gen.identity_case(self.rng, kind)
        case["kind"] = kind
        case["expect"] = True    # each is a theorem of the Cartan calculus
        return case

    def run(self, case):
        kind = case["kind"]
        d, i_, lie = cartan.exterior_d, cartan.interior, cartan.lie_derivative
        if kind == "d_squared":
            return d(d(case["w"])).is_zero()
        if kind == "cartan":
            X, w = case["X"], case["w"]
            return lie(X, w) == i_(X, d(w)) + d(i_(X, w))
        if kind == "leibniz":
            a, b = case["a"], case["b"]
            sign = (-1) ** a.form_degree()
            return d(expr.gmul(a, b)) == \
                expr.gmul(d(a), b) + expr.gmul(a, d(b)) * sign
        X, Y, w = case["X"], case["Y"], case["w"]
        sign = (-1) ** (X.parity * Y.parity)
        lhs = lie(X, i_(Y, w)) - i_(Y, lie(X, w)) * sign
        return lhs == i_(cartan.lie_bracket(X, Y), w)

    def check(self, case, verdict):
        if verdict != case["expect"]:
            return [f"{case['kind']}: verdict {verdict}, expected {case['expect']}"]
        return [None]


class SuperEquality(Workload):
    """Randomized equality on charts with 1 to 4 odd coordinates; every fifth
    pair is false."""

    name = "super-equality"
    FALSE_EVERY = 5

    def make_input(self, i):
        # the 16 (family, odd count) pairs in turn, so every run has the same
        # mix: evaluation cost doubles with each odd coordinate
        k = len(gen.EQUALITY_FAMILIES)
        family = gen.EQUALITY_FAMILIES[i % k]
        n_odd = 1 + i // k % 4
        true_pair = i % self.FALSE_EVERY != self.FALSE_EVERY - 1
        case = gen.equality_case(self.rng, family, true_pair, n_odd)
        case["family"] = family
        case["policy"] = equality.EqualityPolicy(
            mode="randomized", seed=self.rng.randrange(2 ** 31))
        return case

    def run(self, case):
        return equality.equal(case["lhs"], case["rhs"], case["policy"])

    def check(self, case, res):
        if res.equal != case["expect"]:
            return [f"{case['family']}: verdict {res.equal}, "
                    f"expected {case['expect']}"]
        if res.mode != "randomized":
            return [f"{case['family']}: mode {res.mode!r}, expected 'randomized'"]
        if not res.equal and not res.witness:
            return [f"{case['family']}: false verdict without a witness"]
        return [None]


class StraightenGrid(Workload):
    """One request straightens a commuting pair on a 2x2x2 grid; one op is
    one grid node."""

    name = "straighten-grid"
    NODES_PER_AXIS = 2
    ops_per_request = NODES_PER_AXIS ** 3
    NODE_TOL = 1e-6

    def make_input(self, i):
        return gen.straighten_case(self.rng, i)

    def run(self, case):
        return darboux.straighten_commuting(
            case["fields"], case["base"], box=case["box"],
            nodes_per_axis=self.NODES_PER_AXIS)

    def check(self, case, grid):
        n = self.ops_per_request
        if not grid.certified:
            return [f"grid not certified (max error {grid.max_error:.3g})"] * n
        if grid.slice_axes != [gen.slice_axis(case)] or len(grid.nodes) != n:
            return [f"unexpected grid shape: slice axes {grid.slice_axes}, "
                    f"{len(grid.nodes)} nodes"] * n
        out = []
        for u, x in grid.nodes:
            ref = gen.straighten_reference(case, u)
            err = max(abs(float(a) - b) for a, b in zip(x, ref))
            out.append(None if err <= self.NODE_TOL else
                       f"node {u}: off the reference by {err:.3g}")
        return out


WORKLOADS = {w.name: w for w in (CliManifests, CalculusIdentities,
                                 SuperEquality, StraightenGrid)}
