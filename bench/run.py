"""Benchmark for graded-darboux.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with one client: each request is sent
only after the previous one has completed, in this single process, with
BLAS pinned to one thread.  Every output is checked against an answer that
does not come from the code under test.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it print every metric by name
with its unit and sample count, and the run's metadata.  The exit code is
0 only when every op was correct.  Timed metrics are scaled to a reference
speed by the calibration kernel in ``calibrate.py``; the unscaled values
are printed as ``raw.*``.

With ``--trace 1`` the first half of the time runs untraced and the second
half traced, on the same seeded inputs; the spans go to
``bench/out/trace-<workload>-seed<N>.jsonl``.  See ``bench/NOTES.md``.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# an untraced run times at least this many latency samples (rounds), so that
# at least ten lie beyond op_ms.p90
MIN_SAMPLES = 100
# the calibration kernel runs after each slice of this much request time,
# and ops_per_s is the median rate over slices of at least this length
SLICE_S = 1.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(name: str, seed: int, out_dir: Path) -> tuple:
    """Set-up seconds of SETUP_REPEATS fresh interpreters, one after another,
    raw and scaled to the reference speed."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed),
             str(out_dir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        setup_s, kernel_s = map(float, proc.stdout.split())
        raw.append(setup_s)
        scaled.append(setup_s * calibrate.REF_S / kernel_s)
    return raw, scaled


class Loop:
    """Closed-loop driver: request latencies, op counts and failures."""

    def __init__(self, workload, tracer=None):
        self.w = workload
        self.tracer = tracer
        self.latencies = []     # raw seconds per timed request
        self.slice_of = []      # calibration slice of each timed request
        self.kernel_s = []      # kernel times at the slice boundaries
        self.labels = []        # workload label of each timed request
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def request(self, timed: bool):
        w, tr = self.w, self.tracer
        inp = w.next_input()
        traced = tr is not None and timed
        if traced:
            tr.begin_op(w.count - 1, "op." + w.name)
        t0 = time.perf_counter()
        try:
            out = w.run(inp)
        except Exception as exc:  # the op failed; record it and go on
            out = None
            verdicts = [f"raised {type(exc).__name__}: {exc}"] * w.ops_per_request
        dt = time.perf_counter() - t0
        if traced:
            tr.end_op()
        if out is not None:
            verdicts = w.check(inp, out)
        self.attempted += len(verdicts)
        bad = [v for v in verdicts if v is not None]
        self.failed += len(bad)
        self.errors.extend(bad[:1])
        if timed:
            self.latencies.append(dt)
            self.labels.append(w.label(inp))

    def run_for(self, seconds: float, min_rounds: int = 2):
        """One round of warm-up, checked but neither timed nor traced; then
        requests until the time is up and at least ``min_rounds`` rounds are
        timed.  The calibration kernel runs before the first timed request
        and after every slice."""
        rnd = self.w.round_size
        for _ in range(rnd):
            self.request(timed=False)
        self.kernel_s.append(calibrate.measure())
        busy = 0.0
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or len(self.latencies) < min_rounds * rnd:
            self.request(timed=True)
            self.slice_of.append(len(self.kernel_s) - 1)
            busy += self.latencies[-1]
            if busy >= SLICE_S:
                self.kernel_s.append(calibrate.measure())
                busy = 0.0
        if busy:
            self.kernel_s.append(calibrate.measure())

    @property
    def scale(self) -> list:
        """REF_S / kernel time for each timed request.  The kernel time of
        slice j is the median of the four boundary measurements j-1 .. j+2,
        which follows speed changes that last seconds but not the kernel's
        own jitter."""
        k = self.kernel_s
        per_slice = [calibrate.REF_S / statistics.median(k[max(0, j - 1):j + 3])
                     for j in range(len(k) - 1)]
        return [per_slice[j] for j in self.slice_of]

    @property
    def scaled(self) -> list:
        """Request times at the reference speed."""
        return [t * f for t, f in zip(self.latencies, self.scale)]

    @property
    def ops(self) -> int:
        return len(self.latencies) * self.w.ops_per_request

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def latency_samples(loop: Loop, times: list) -> list:
    """Milliseconds per op, one sample per complete round of requests.

    A sample is the mean op latency over the round.  For cli-manifests a
    round is the six manifests, because a pooled percentile over six fixed
    latency clusters would sit on a cluster edge; elsewhere it is one request.
    """
    k = loop.w.round_size
    lat = [1e3 * t / loop.w.ops_per_request for t in times]
    return [statistics.fmean(lat[i:i + k]) for i in range(0, len(lat) - k + 1, k)]


def slice_rates(loop: Loop, times: list) -> list:
    """Ops per second of request time over consecutive slices of whole
    rounds, each at least SLICE_S long; the whole run if it is shorter."""
    k, per = loop.w.round_size, loop.w.ops_per_request
    rates, ops, busy = [], 0, 0.0
    for i in range(0, len(times) - k + 1, k):
        ops += k * per
        busy += sum(times[i:i + k])
        if busy >= SLICE_S:
            rates.append(ops / busy)
            ops, busy = 0, 0.0
    return rates or [loop.ops / sum(times)]


def timing_lines(loop: Loop, times: list, prefix: str = "") -> dict:
    lat = latency_samples(loop, times)
    n = len(lat)
    rates = slice_rates(loop, times)
    out = {
        prefix + "ops_per_s": (statistics.median(rates), "1/s",
                               f"median of {len(rates)} slices; {loop.ops} "
                               f"ops in {sum(times):.3f} s of requests"),
        prefix + "op_ms.p50": (statistics.median(lat), "ms", f"n={n}"),
        prefix + "op_ms.p90": (statistics.quantiles(lat, n=10)[8], "ms", f"n={n}"),
    }
    by = {}
    for label, t in zip(loop.labels, times):
        if label:
            by.setdefault(label, []).append(1e3 * t)
    for label, ts in by.items():
        out[prefix + label] = (statistics.median(ts), "ms", f"median, n={len(ts)}")
    return out


def end_to_end(loop: Loop, setup: tuple) -> dict:
    raw_setup, setup = setup
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"setup_s": (statistics.median(setup), "s",
                       f"median of {len(setup)} fresh interpreters")}
    out.update(timing_lines(loop, loop.scaled))
    out["peak_rss_mb"] = (rss_mb, "MB", "ru_maxrss of this process")
    out["raw.setup_s"] = (statistics.median(raw_setup), "s", "unscaled")
    out.update(timing_lines(loop, loop.latencies, "raw."))
    out["calibration.scale"] = (statistics.median(loop.scale), "ratio",
                                f"median REF_S / kernel time, REF_S={calibrate.REF_S}")
    return out


def metadata(seed: int) -> dict:
    import numpy
    commit = None           # the checkout is not always a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit, "seed": seed,
            "src_py_lines": src_lines}


def report(lines: dict):
    for name, (value, unit, note) in lines.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} {unit}" + (f"  ({note})" if note else ""))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graded_darboux" / "__init__.py").is_file():
        print(f"error: no graded_darboux sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    work_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, cls, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, cls, work_dir: Path) -> int:
    setup = measure_setup(args.workload, args.seed, work_dir)
    meta = metadata(args.seed)
    print(f"meta: {json.dumps(meta, sort_keys=True)}")

    w = cls(args.seed, ROOT, work_dir)
    w.prepare()
    if not args.trace:
        loop = Loop(w)
        loop.run_for(args.seconds, MIN_SAMPLES)
        lines = end_to_end(loop, setup)
        loops = [loop]
        final = {k: lines[k] for k in declared("end_to_end")}
    else:
        from tracing import Tracer
        plain = Loop(w)
        plain.run_for(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            w2 = cls(args.seed, ROOT, work_dir)
            w2.prepare()
            traced = Loop(w2, tracer)
            traced.run_for(args.seconds / 2)
        finally:
            tracer.uninstall()
        loops = [plain, traced]
        lines = {k: v + (None,) for k, v in
                 tracer.metrics(traced.ops, traced.busy_s).items()}
        # the same inputs in the same order: compare the requests both ran
        n = min(len(plain.latencies), len(traced.latencies))
        lines["trace.overhead_ratio"] = (
            sum(traced.scaled[:n]) / sum(plain.scaled[:n]), "ratio",
            f"traced / untraced request time over the first {n} requests")
        lines["trace.ops"] = (traced.ops, "count", None)
        spans = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}"
              f", {tracer.dropped} beyond the cap counted but not kept")
        final = {k: lines[k] for k in declared("per_layer")}

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    lines["failed_ratio"] = (failed / attempted, "ratio",
                             f"{failed} of {attempted} ops")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{failed} of {attempted} ops failed")
    for err in sorted({e for lp in loops for e in lp.errors})[:10]:
        print(f"  failure: {err}")
    report(lines)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in final.items()},
    }))
    return 0 if failed == 0 else 1


def declared(kind: str) -> list:
    """The metric names BENCHMARK.json declares for the final line."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


if __name__ == "__main__":
    sys.exit(main())
