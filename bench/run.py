"""ldpcdesign benchmark: one command, three workloads.

    python3 bench/run.py --workload {lp-stress,de-analysis,sweep} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Each workload is a fixed panel of operations made by ``instances`` from a
constant panel seed.  A run makes exactly one pass over its panel, in an
order set by ``--seed``: every run attempts the same operations, so the
failed share is the same in every run, and no input repeats within a run,
so a cache across calls gains only from the repetition inside one
operation.  The panels are sized so that one pass takes 10-30 s;
``--seconds`` is the nominal run length and never cuts a pass short.
Times are measured net of, and normalised by, the machine-speed probe in
``speed``.  Every answer is then checked against the independent
computations in ``referee``, and every failure against the known failures
in ``checks``: any other failure makes the run incorrect, and it exits
with code 1 after printing its result.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import os

# One BLAS thread: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"

PANEL_SEED = 0  # the panels never depend on --seed
LP_PANEL = 150
DE_PANEL = 100
SETUP_REPEATS = 5
SETUP_PROBES = 5  # kernel runs before and after each set-up

SWEEP = {"d_c": 4, "epsilon": 0.3, "d_v": 6, "alpha": "0.2:0.1:1.0",
         "alphas": tuple(round(0.2 + 0.1 * k, 12) for k in range(9))}


def setup_seconds(workload: str) -> float:
    """The program's set-up in a fresh interpreter: the import of its
    modules and the first, cold warm-up operation, divided by the speed
    factor of probe kernels run just before and just after it.  numpy and
    the benchmark's own modules are loaded before the clock starts: the
    instances and their reference values are benchmark work, which no
    change to the program can move."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    import instances  # noqa: F401
    from speed import NOMINAL_S, kernel_seconds
    kernel_seconds(1)  # loads the kernel's own code and data
    samples = kernel_seconds(SETUP_PROBES)
    t0 = time.perf_counter()
    importlib.import_module("ldpcdesign.cli")
    WORKLOADS[workload]().warm()
    seconds = time.perf_counter() - t0
    samples += kernel_seconds(SETUP_PROBES)
    return seconds / (statistics.median(samples) / NOMINAL_S)


def child_setup_seconds(argv: list[str]) -> float:
    out = subprocess.run([sys.executable, __file__, *argv, "--setup-child"], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class LPStress:
    """One op: lp.solve_semi_infinite on a random design."""

    def make(self):
        from instances import lp_instance
        rng = np.random.default_rng(PANEL_SEED)
        return [lp_instance(rng) for _ in range(LP_PANEL)]

    def warm(self):
        from instances import LPInstance
        self.op(LPInstance(d_c=4, d_v=6, epsilon=0.3, alpha=0.5))

    def op(self, inst):
        from ldpcdesign import lp
        from ldpcdesign.polynomials import poly_from_edge_coeffs
        req = lp.SolveRequest(rho=poly_from_edge_coeffs({inst.d_c: 1.0}), epsilon=inst.epsilon,
                              alpha=inst.alpha, d_v=inst.d_v)
        res = lp.solve_semi_infinite(req)
        return res.status, dict(res.lambda_coeffs)

    def check(self, inst, out):
        from checks import check_lp
        from referee import lp_referee
        ref = lp_referee(inst.d_c, inst.epsilon, inst.d_v, inst.alpha)
        return check_lp(inst, out[0], out[1], ref)


class DEAnalysis:
    """One op: threshold, then a DE trace at 0.9 x the reference threshold,
    then its empirical contraction."""

    def make(self):
        from instances import de_instance
        rng = np.random.default_rng(PANEL_SEED)
        return [de_instance(rng) for _ in range(DE_PANEL)]

    def warm(self):
        from instances import DEInstance
        self.op(DEInstance(lam={3: 1.0}, rho={6: 1.0}, ref_threshold=0.4294))

    def op(self, inst):
        from ldpcdesign import desim
        from ldpcdesign.polynomials import DegreeDistribution
        dist = DegreeDistribution(inst.lam, inst.rho)
        th = desim.threshold(dist, tol=1e-6)
        trace = desim.de_trace(dist, 0.9 * inst.ref_threshold)
        return th.threshold, trace.converged, desim.empirical_contraction(trace)

    def check(self, inst, out):
        from checks import check_de
        return check_de(inst, *out)


class Sweep:
    """One op: the reference experiment through the CLI, CSV and both SVGs."""

    CONFIG = ("rho = x^{p}\nepsilon = {epsilon}\ndv_max = {d_v}\nalpha = {alpha}\n"
              "solver = both\nout_csv = {out}/sweep.csv\nout_svg = {out}/sweep.svg\n")

    def make(self):
        return [dict(SWEEP, p=SWEEP["d_c"] - 1)]

    def warm(self):
        self.op(dict(SWEEP, p=SWEEP["d_c"] - 1, d_v=3, alpha="0.5"))[1].cleanup()

    def op(self, inst):
        """Returns the exit code and the output directory, which ``check``
        removes.  The directory is inside the checkout: the benchmark writes
        nowhere else."""
        from ldpcdesign import cli
        OUT.mkdir(exist_ok=True)
        out = tempfile.TemporaryDirectory(prefix="sweep-", dir=OUT)
        cfg = Path(out.name) / "sweep.cfg"
        cfg.write_text(self.CONFIG.format(out=out.name, **inst))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["sweep", str(cfg)])
        return rc, out

    def check(self, inst, out):
        from checks import check_sweep, read_sweep_csv
        rc, tmp = out
        with tmp as out_dir:
            if rc != 0:
                return f"exit-code-{rc}"
            for svg in ("sweep.svg", "sweep_gap.svg"):
                if "</svg>" not in (Path(out_dir) / svg).read_text():
                    return "svg-incomplete"
            rows = read_sweep_csv(Path(out_dir) / "sweep.csv")
            return check_sweep(rows, inst["d_c"], inst["epsilon"], inst["d_v"],
                               inst["alphas"])


WORKLOADS = {"lp-stress": LPStress, "de-analysis": DEAnalysis, "sweep": Sweep}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, int(np.ceil(q / 100.0 * len(ordered))) - 1)]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="nominal run length; a run always makes one whole pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "ldpcdesign" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.setup_child:
        print(setup_seconds(args.workload))
        return 0
    sys.path[:0] = [str(SRC), str(BENCH)]
    import ldpcdesign.cli  # noqa: F401  (the first in-process import)
    if not Path(ldpcdesign.__file__).resolve().is_relative_to(SRC):
        print(f"error: ldpcdesign imported from {ldpcdesign.__file__}", file=sys.stderr)
        return 2

    from checks import FAULT_OF_REASON, KNOWN_FAILURES, unexpected_failures
    from speed import SpeedProbe
    setups = [] if args.trace else [child_setup_seconds(argv) for _ in range(SETUP_REPEATS)]
    workload = WORKLOADS[args.workload]()
    panel = workload.make()
    with SpeedProbe() as probe:
        workload.warm()
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer(clock=probe.clock)
            tracer.install()
        records = []  # (panel index, output, start, end) on the probe's clock
        start = probe.clock()
        try:
            for idx in np.random.default_rng(args.seed).permutation(len(panel)):
                if tracer:
                    tracer.start_op(len(records))
                t0 = probe.clock()
                try:
                    out = workload.op(panel[idx])
                except Exception as exc:  # a crash is a failed operation, not a dead run
                    out = exc
                records.append((int(idx), out, t0, probe.clock()))
        finally:
            elapsed = probe.clock() - start
            if tracer:
                tracer.uninstall()
    factor = probe.factor(start, start + elapsed)
    # Each operation is normalised by the probe samples taken during it or
    # within half a second of it: the speed moves within seconds.
    ms = [1e3 * (t1 - t0) / probe.factor(t0, t1, pad=0.5) for _, _, t0, t1 in records]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = {}  # panel index -> reason
    for idx, out, _, _ in records:
        if isinstance(out, Exception):
            reason = f"exception-{type(out).__name__}"
            traceback.print_exception(out)
        else:
            reason = workload.check(panel[idx], out)
        if reason:
            failures[idx] = reason

    unexpected = unexpected_failures(args.workload, failures)
    attempted, failed = len(records), len(failures)
    print(f"workload {args.workload}: one pass of {attempted} ops in {elapsed:.2f} s, "
          f"{failed} failed")
    for reason, n in sorted(Counter(failures.values()).items()):
        print(f"  failed {n:5d}  {reason}  (fault {FAULT_OF_REASON.get(reason, '?')})")
    for idx, reason in unexpected:
        print(f"  UNEXPECTED failure: panel[{idx}] {reason} "
              f"(known: {KNOWN_FAILURES[args.workload].get(idx)})")
    mended = sorted(set(KNOWN_FAILURES[args.workload]) - set(failures))
    if mended:
        print(f"  known failures that passed: {mended}")

    if tracer:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.layer_metrics(attempted, factor).items()}
        metrics["traced.op_ms.p50"] = {"value": statistics.median(ms), "unit": "ms"}
        total = sum(t1 - t0 for _, _, t0, t1 in records)
        for name, seconds in list(tracer.self_seconds().items())[:4]:
            print(f"  self time {100 * seconds / total:5.1f} %  {name}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": 1e3 * attempted / sum(ms), "unit": "1/s"},
            "op_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
            "op_ms.p90": {"value": percentile(ms, 90), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    raw_ms = [1e3 * (t1 - t0) for _, _, t0, t1 in records]
    print("raw " + json.dumps({  # wall-clock figures before the speed normalisation
        "factor": factor, "ops_per_s": attempted / elapsed,
        "op_ms.p50": statistics.median(raw_ms), "op_ms.p90": percentile(raw_ms, 90)}))
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
