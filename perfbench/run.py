"""gsalg benchmark: seeded workloads, known-answer checks, end-to-end and per-layer metrics.

Run from the root of a checkout:

  python3 perfbench/run.py --workload dims-gfp --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One parent process starts every gsalg run as a child, one at a time.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run; the last line of output is one JSON object.  Any
wrong answer, unexpected exit code, traceback or timeout is a failed
operation, and the command then exits with code 1.

Times are reported in reference seconds.  A reference process
(refloop.py) runs fixed work at low priority on the same core as the
children; its rounds per CPU second over a child's lifetime give the speed
the core had during that child, and the child's times are scaled by it.
This shared host changes speed by 1.3-2x for fractions of a second to
minutes at a time, for any code; the scaling cancels that, and a change to
gsalg itself still moves the figures in full.  Raw seconds are printed too.
See README.md.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import uuid

import known
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_MAIN = "import sys; from gsalg.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_PROBES = 2          # fresh interpreters timed for setup_s after each pass
RUN_LIMIT_S = 150.0        # no pass starts later than this into a run
CHILD_TIMEOUT_S = 120.0
EDGE_S = 0.02              # the reference runs alone this long before and after a child
# Rounds per CPU second of refloop.py on a 2-core 2.0 GHz Xeon VM with
# Python 3.11.7 and numpy 2.4.6 (median of 0.5 s windows); it only sets
# the scale, so that a reference second is about a second there.
REF_NOMINAL_RATE = 530.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
LAYER_UNITS = {name: "s" if name.endswith(("_s", ".s")) else "count" for name in tracer.LAYER_METRICS}
LAYER_UNITS.update({
    "graded.row_yield": "ratio",
    "linalg.mulmod.gflop": "gflop",
    "trace.overhead": "ratio",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
})


# scale: whole lifetime; phase_scales: one per phase of a phased child
Child = collections.namedtuple("Child", "ok wall cpu out scale phase_scales")


class Reference:
    """The refloop.py process, pinned with this one; closed on every path out."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "refloop.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def read(self):
        """(rounds, CPU seconds) of the reference so far."""
        self.proc.stdin.write(b"?\n")
        self.proc.stdin.flush()
        rounds, cpu = self.proc.stdout.readline().split()
        return int(rounds), float(cpu)

    @staticmethod
    def scale(before, after):
        """Reference speed between two reads, relative to nominal."""
        return (after[0] - before[0]) / (after[1] - before[1]) / REF_NOMINAL_RATE

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Run:
    """State of one workload run: the child environment and the tallies."""

    def __init__(self, root, workdir, seed, seconds, deadline, reference=None):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.deadline = deadline
        self.run_id = uuid.uuid4().hex
        self.env = dict(os.environ, PYTHONPATH="src")
        self.attempted = 0
        self.failures = []
        self.peak_rss_kb = 0
        self.reference = reference
        self.scales = []

    def child(self, argv, phased=False):
        """Run one child to completion; returns a Child.

        The child is reaped with wait4, which gives its own CPU time and
        peak RSS; a child still running at its timeout is killed.  With a
        reference, `scale` turns the child's wall and CPU seconds into
        reference seconds: the reference's speed over the child's lifetime
        and the EDGE_S it runs alone on either side, over its nominal speed.
        A phased child prints a line when its first phase ends and waits
        for a line on stdin; the reference is read there too, which gives
        `phase_scales` for the two phases.
        """
        ref = self.reference
        marks = []

        def between():
            if ref is not None:
                time.sleep(EDGE_S)
                marks.append(ref.read())
                time.sleep(EDGE_S)

        if ref is None:
            return Child(*self._child(argv, between if phased else None), None, None)
        before = ref.read()
        time.sleep(EDGE_S)
        ok, wall, cpu, stdout = self._child(argv, between if phased else None)
        time.sleep(EDGE_S)
        reads = [before] + marks + [ref.read()]
        scale = ref.scale(reads[0], reads[-1])
        self.scales.append(scale)
        return Child(ok, wall, cpu, stdout, scale,
                     [ref.scale(a, b) for a, b in zip(reads, reads[1:])] if phased else None)

    def _child(self, argv, between=None):
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.deadline + 25.0 - time.perf_counter()))
        with tempfile.TemporaryFile("w+", dir=self.workdir) as out, \
                tempfile.TemporaryFile("w+", dir=self.workdir) as err:
            start = time.perf_counter()
            pipe = subprocess.PIPE if between else None
            proc = subprocess.Popen([sys.executable] + argv, cwd=self.root, env=self.env,
                                    stdin=pipe, stdout=pipe or out, stderr=err, text=True)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            stdout = None
            try:
                if between:
                    proc.stdout.readline()      # "" if the child ended first
                    between()
                    with contextlib.suppress(BrokenPipeError):
                        proc.stdin.write("go\n")
                        proc.stdin.close()
                    stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                if between:
                    proc.stdout.close()
                    with contextlib.suppress(BrokenPipeError):
                        proc.stdin.close()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read() if stdout is None else stdout, err.read()
        cpu = usage.ru_utime + usage.ru_stime
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if wall >= timeout:
            self.failures.append("timeout after %.0f s: %s" % (wall, " ".join(argv[:6])))
            return False, wall, cpu, stdout
        if proc.returncode != 0 or "Traceback" in stderr:
            self.failures.append("exit %d: %s | %s" % (proc.returncode, " ".join(argv[:6]), stderr.strip()[-300:]))
            return False, wall, cpu, stdout
        return True, wall, cpu, stdout

    def time_left(self):
        return time.perf_counter() < self.deadline


def import_probes(run):
    """(raw, reference) CPU seconds of fresh interpreters that only import gsalg.cli."""
    out = []
    for _ in range(IMPORT_PROBES):
        run.attempted += 1
        res = run.child(["-c", "import gsalg.cli"])
        if res.ok:
            out.append((res.cpu, res.cpu * res.scale))
    return out


# -- CLI workloads ----------------------------------------------------------------

def dims_ops(name, run):
    """(label, gsalg argv, checker) per cell, generators written from the seed."""
    rng = random.Random(run.seed)
    ops = []
    for i, cell in enumerate(known.DIMS[name]):
        path = os.path.join(run.workdir, "gens-%d.txt" % i)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(known.seeded_generators(cell, rng)) + "\n")
        argv = ["dims", "--gens", path, "--d", str(cell.d),
                "--maxdeg", str(cell.maxdeg), "--field", cell.field]
        expected = known.expected_dims_csv(cell)
        ops.append(("%d:%s/%d" % (i, cell.field, cell.maxdeg), argv,
                    lambda out, expected=expected: out == expected))
    return ops


def _construct_ok(out, cell, path):
    lines = out.splitlines()
    blocks = []
    for line in lines:
        if line.startswith("block "):
            fields = dict(part.split("=", 1) for part in line.split()[2:5])
            blocks.append((int(fields["c"]), int(fields["q"]), int(fields["n"])))
    try:
        with open(path, encoding="utf-8") as fh:
            saved = [(b["c"], b["q"], b["n"]) for b in json.load(fh)["blocks"]]
        os.remove(path)
    except (OSError, ValueError, KeyError, TypeError):
        return False
    return (tuple(blocks) == cell.blocks and tuple(saved) == cell.blocks
            and lines[-1:] == ["saved: %s" % path])


def construct_ops(name, run):
    cells = list(known.CONSTRUCT)
    random.Random(run.seed).shuffle(cells)
    ops = []
    for cell in cells:
        path = os.path.join(run.workdir, "bp-%d.json" % cell.d)
        argv = ["construct", "--d", str(cell.d), "--eps", cell.eps, "--blocks", "2", "--out", path]
        ops.append(("d%d" % cell.d, argv,
                    lambda out, cell=cell, path=path: _construct_ok(out, cell, path)))
    return ops


def cli_pass(run, ops, traced):
    """Run every op once; returns the trace dumps and per op
    (label, wall, cpu, wall and CPU in reference seconds, 0 without a reference)."""
    samples, traces = [], []
    for i, (label, argv, check) in enumerate(ops):
        if traced:
            trace_path = os.path.join(run.workdir, "trace-%d.json" % i)
            argv = [os.path.join(HERE, "child.py"), "cli", "--trace", trace_path,
                    "--run-id", run.run_id, "--"] + argv
        else:
            argv = ["-c", CLI_MAIN] + argv
        run.attempted += 1
        res = run.child(argv)
        if res.ok and not check(res.out):
            run.failures.append("wrong answer: %s" % " ".join(argv[-8:]))
        if traced and res.ok:
            with open(trace_path, encoding="utf-8") as fh:
                traces.append(json.load(fh))
        scale = res.scale or 0.0
        samples.append((label, res.wall, res.cpu, res.wall * scale, res.cpu * scale))
    return samples, traces


# -- membership -------------------------------------------------------------------

def membership_pass(run, traced):
    """One worker process: a blueprint set-up, then one round of queries.

    With a reference, its set-up CPU time and its round's wall and CPU times
    gain `*_ref_s` twins in reference seconds, each scaled by the
    reference's speed during its own phase.
    """
    out = os.path.join(run.workdir, "membership.json")
    trace_path = os.path.join(run.workdir, "trace-membership.json")
    argv = [os.path.join(HERE, "child.py"), "membership", "--seed", str(run.seed),
            "--workdir", run.workdir, "--out", out]
    if traced:
        argv += ["--trace", trace_path, "--run-id", run.run_id]
    child = run.child(argv, phased=True)
    if not child.ok:
        run.attempted += 1
        return None, child.wall, []
    with open(out, encoding="utf-8") as fh:
        res = json.load(fh)
    if child.phase_scales is not None:
        setup_scale, round_scale = child.phase_scales
        res["setup_cpu_ref_s"] = res["setup_cpu_s"] * setup_scale
        res["round_ref_s"] = res["round_s"] * round_scale
        res["round_cpu_ref_s"] = res["round_cpu_s"] * round_scale
    run.attempted += res["attempted"]
    for _ in range(res["failed"]):
        run.failures.append("wrong membership answer")
    traces = []
    if traced:
        with open(trace_path, encoding="utf-8") as fh:
            traces.append(json.load(fh))
    return res, child.wall, traces


def pass_runner(name, run):
    """A function running one pass: (samples, wall s, trace dumps)."""
    if name == "membership":
        return lambda traced: membership_pass(run, traced)
    ops = (dims_ops if name.startswith("dims") else construct_ops)(name, run)

    def run_pass(traced):
        samples, traces = cli_pass(run, ops, traced)
        return samples, sum(sample[1] for sample in samples), traces

    return run_pass


def repeat(run, step):
    """Call step() at least once; stop before one more would end past --seconds."""
    start = time.perf_counter()
    count = 0
    while True:
        t = time.perf_counter()
        step()
        count += 1
        now = time.perf_counter()
        if now - start + (now - t) > run.seconds or not run.time_left():
            return count


# -- measurement ------------------------------------------------------------------

def end_to_end(name, run):
    """Untraced run: the end-to-end metrics and their raw samples.

    Import probes run after every pass, so that set-up is sampled across
    the run like the timed phase.
    """
    run_pass = pass_runner(name, run)
    passes, imports = [], []

    def step():
        samples, _, _ = run_pass(False)
        if samples is not None:
            passes.append(samples)
        imports.extend(import_probes(run))

    count = repeat(run, step)
    raw = {"passes": count, "import_s": [x for x, _ in imports],
           "import_ref_s": [x for _, x in imports]}
    if not passes or not imports:
        return None, raw
    med = statistics.median
    if name == "membership":
        keys = ("setup_s", "setup_cpu_s", "round_s", "round_cpu_s",
                "setup_cpu_ref_s", "round_ref_s", "round_cpu_ref_s")
        raw.update({k: [res[k] for res in passes] for k in keys})
        lat = [x for res in passes for x in res["latency_ms"]]
        raw["latency_ms"] = lat
        # per-query percentiles: 200 queries a round leave 20 beyond p90
        raw["query_ms"] = {"p50": med(lat),
                           "p90": statistics.quantiles(lat, n=10, method="inclusive")[-1]}
        metrics = {
            "wall_s": med(raw["round_ref_s"]),
            "cpu_s": med(raw["round_cpu_ref_s"]),
            "setup_s": med(raw["import_ref_s"]) + med(raw["setup_cpu_ref_s"]),
        }
        raw["raw_s"] = {"raw_wall_s": med(raw["round_s"]), "raw_cpu_s": med(raw["round_cpu_s"]),
                        "raw_setup_cpu_s": med(raw["import_s"]) + med(raw["setup_cpu_s"])}
    else:
        labels = [sample[0] for sample in passes[0]]
        for i, key in enumerate(("op_wall_s", "op_cpu_s", "op_wall_ref_s", "op_cpu_ref_s"), 1):
            raw[key] = {lb: [s[i] for p in passes for s in p if s[0] == lb] for lb in labels}

        def pass_total(key):
            # A pass runs every cell once; each cell counts with its median.
            return sum(med(raw[key][lb]) for lb in labels)

        metrics = {
            "wall_s": pass_total("op_wall_ref_s"),
            "cpu_s": pass_total("op_cpu_ref_s"),
            "setup_s": med(raw["import_ref_s"]),
        }
        raw["raw_s"] = {"raw_wall_s": pass_total("op_wall_s"), "raw_cpu_s": pass_total("op_cpu_s"),
                        "raw_setup_cpu_s": med(raw["import_s"])}
    metrics["peak_rss_mb"] = run.peak_rss_kb / 1024.0
    raw["reference_scale"] = run.scales
    return metrics, raw


def per_layer(name, run):
    """Traced run: alternate untraced and traced passes, report traced layers."""
    run_pass = pass_runner(name, run)
    walls = {False: [], True: []}
    layers, absent = [], set()

    def step():
        for traced in (False, True):
            _, wall, traces = run_pass(traced)
            walls[traced].append(wall)
            if traces:
                layers.append(tracer.summarize(traces))
                absent.update(a for trace in traces for a in trace["absent"])

    count = repeat(run, step)
    raw = {"passes": count, "untraced_pass_s": walls[False], "traced_pass_s": walls[True],
           "absent": sorted(absent)}
    if not layers:
        return None, raw
    metrics = {m: statistics.median(layer[m] for layer in layers) for m in tracer.LAYER_METRICS}
    untraced, traced = statistics.median(walls[False]), statistics.median(walls[True])
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.overhead"] = traced / untraced
    return metrics, raw


# -- metadata and output -------------------------------------------------------------

def git_commit(root):
    """The checkout's commit, read from .git without running git (None if absent)."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def blas_info():
    import ctypes
    import glob

    import numpy as np

    cfg = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "lib*openblas*.so")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    return {"numpy": np.__version__, "blas": "%s %s" % (cfg.get("name"), cfg.get("version")),
            "blas_threads": threads}


def metadata(root, args):
    meta = {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(root),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_limit_s": RUN_LIMIT_S,
        "ref_nominal_rate": REF_NOMINAL_RATE,
    }
    meta.update(blas_info())
    return meta


def run_workload(name, args, root, workdir):
    """An untraced run measures beside a reference; a traced run reports raw times."""
    reference = None if args.trace else Reference()
    try:
        run = Run(root, workdir, args.seed, args.seconds, time.perf_counter() + RUN_LIMIT_S, reference)
        metrics, raw = (per_layer if args.trace else end_to_end)(name, run)
    finally:
        if reference is not None:
            reference.close()
    if metrics is None:
        run.failures.append("no samples")
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    return run, metrics or {m: 0.0 for m in units}, units, raw


def pin_to_one_core():
    """Run this process and every child on one core, BLAS with one thread.

    The reference process and the child it runs beside then share that
    core, so the reference sees the speed that child saw.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["all"] + list(known.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so its running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gsalg", "cli.py")):
        print("error: run from a gsalg checkout (src/gsalg/cli.py not found)", file=sys.stderr)
        return 2
    names = list(known.WORKLOADS) if args.workload == "all" else [args.workload]
    pin_to_one_core()
    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    meta = metadata(root, args)
    results = []
    with tempfile.TemporaryDirectory(dir=os.path.join(root, ".perfbench_work")) as workdir:
        for name in names:
            results.append((name,) + run_workload(name, args, root, workdir))

    attempted = failed = 0
    merged = {}
    for name, run, metrics, units, raw in results:
        attempted += run.attempted
        failed += len(run.failures)
        print("== %s  (seed %d, %g s, %s, %d passes)"
              % (name, args.seed, args.seconds, "traced" if args.trace else "untraced", raw["passes"]))
        for metric, unit in units.items():
            print("  %-30s %14.6g %s" % (metric, metrics[metric], unit))
        for metric, value in raw.get("raw_s", {}).items():
            print("  %-30s %14.6g s (not scaled to the reference)" % (metric, value))
        for q, value in raw.get("query_ms", {}).items():
            print("  %-30s %14.6g ms (per query, %d queries)" % ("query_%s_ms" % q, value, len(raw["latency_ms"])))
        ratio = len(run.failures) / run.attempted if run.attempted else 1.0
        print("  %-30s %14.6g (%d of %d operations)" % ("fail_ratio", ratio, len(run.failures), run.attempted))
        for what in run.failures[:10]:
            print("  FAILED %s" % what)
        print("# raw %s %s" % (name, json.dumps(raw, separators=(",", ":"))))
        prefix = "" if len(results) == 1 else name + "/"
        merged.update({prefix + m: {"value": metrics[m], "unit": u} for m, u in units.items()})
    print("# meta %s" % json.dumps(meta, separators=(",", ":")))
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": merged}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
