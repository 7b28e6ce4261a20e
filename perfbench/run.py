#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload correct_sap --seed 7 --seconds 10 --trace 0

Run it from the root of a source tree. It builds the shipped tools and
perfbench_harness from source into .bench_build/, generates the
workload's input from --seed into .bench_work/, runs the workload the
way users run the tools, checks every output byte for byte against a
1-worker reference run, and prints one JSON result as the last line of
stdout:

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of untraced runs; --trace 1
runs the traced run instead and reports the per-layer metrics.
perfbench/README.md defines every metric, names the layer each one
belongs to and which end-to-end metric it should move. A full record
of each run (provenance, per-iteration timings, host steal and CPU
seconds) is written to .bench_work/results/, never to the current
directory. The command exits 1 when any output check fails.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
TOOLS = os.path.join(BUILD_DIR, "tools")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
TARGETS = ["perfbench_harness", "ngs_correct", "ngs_index_tool", "ngs_correctd"]

# Table 2.1 D3 at genome scale 0.25: 18,750 bp A. sp-like genome, 36 bp
# reads, 173x, 1.5 % error = 90,104 reads. Full D3 takes 8-18 s per
# correction run, too long to repeat within one run.
SCALE = 0.25
WORKERS = 2        # + the executor's reader and writer threads = 4 = nproc
CONNECTIONS = 2    # serve_sap closed-loop client connections
WINDOW = 4         # REQs in flight per connection (> WORKERS)
SERVE_BATCH = 256  # reads per REQ
# Relative to the workload's directory: AF_UNIX paths are limited to 107
# bytes, and the checkout may sit at any depth.
SOCKET = "ngsc.sock"
BUDGET_MB = 4      # forces the spill path: ~35 MiB of kmer instances
SETUP_REPEATS = 5

WORKLOADS = {
    "correct_sap": {"method": "sap", "budget_mb": 0},
    "correct_reptile": {"method": "reptile", "budget_mb": 0},
    "correct_sap_budget": {"method": "sap", "budget_mb": BUDGET_MB},
    "serve_sap": {"method": "sap", "budget_mb": 0, "serve": True},
}

# The metric names and units, as BENCHMARK.json lists them.
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def metric_units(key):
    """name -> unit for the BENCHMARK.json metric list `key`."""
    with open(BENCHMARK) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ------------------------------------------------------------- statistics

def percentile_with_tail(samples, p, min_above=10):
    """The nearest-rank p-quantile of `samples` and how many samples lie
    strictly above it. The value is None when fewer than `min_above`
    samples lie above it: a tail percentile needs at least ten samples
    beyond it to mean anything."""
    values = sorted(samples)
    if not values:
        return None, 0
    rank = max(0, math.ceil(p * len(values)) - 1)
    value = values[rank]
    above = sum(1 for v in values if v > value)
    return (value if above >= min_above else None), above


def count_failures(outputs, reference):
    """How many of `outputs` (bytes, or None for a run that errored)
    differ from the reference bytes."""
    return sum(1 for out in outputs if out is None or out != reference)


def result_line(metrics, attempted, failed, units):
    """The JSON object the driver reads: every metric of `units`, with
    its unit. A metric the run did not produce is reported as 0."""
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    })


# -------------------------------------------------------------- processes

def steal_seconds():
    """Host steal time so far, from the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def start_exec(args, log_path, cwd=None):
    """Starts `args` under `perfbench_harness exec`, which reports the
    program's own wall time, peak RSS and CPU seconds when it ends. The
    program's output is appended to `log_path`."""
    with open(log_path, "a") as err:
        return subprocess.Popen([HARNESS, "exec", "--"] + args,
                                stdout=subprocess.PIPE, stderr=err,
                                text=True, cwd=cwd)


def finish_exec(proc):
    """Waits for a start_exec process: (exit code, wall s, MiB, CPU s)."""
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"perfbench_harness exec exited {proc.returncode}")
    r = json.loads(out.strip().splitlines()[-1])
    return r["exit"], r["wall_s"], r["peak_rss_mb"], r["cpu_s"]


def run_timed(args, log_path):
    """Runs `args` to completion: (exit code, wall s, peak RSS MiB, CPU s)."""
    return finish_exec(start_exec(args, log_path))


def harness(args, log_path, cwd=None):
    """Runs a perfbench_harness command and returns its JSON output."""
    with open(log_path, "a") as err:
        proc = subprocess.run([HARNESS] + args, stdout=subprocess.PIPE,
                              stderr=err, text=True, check=False, cwd=cwd)
    if proc.returncode != 0:
        raise BenchError(f"harness {args[0]} failed (see {log_path})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Daemon:
    """One ngs-correctd process, stopped with SIGTERM and always reaped."""

    def __init__(self, index, cwd, log_path):
        if os.path.exists(os.path.join(cwd, SOCKET)):
            os.unlink(os.path.join(cwd, SOCKET))
        self.started = time.monotonic()
        self.proc = start_exec([os.path.join(TOOLS, "ngs_correctd"),
                                "--socket", SOCKET, "--index", index,
                                "--threads", str(WORKERS)], log_path, cwd)
        self.result = None

    def stop(self):
        """SIGTERM, then (exit code, wall s, peak RSS MiB, CPU s)."""
        if self.result is None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            self.result = finish_exec(self.proc)
        return self.result


# ------------------------------------------------------------------ build

def build():
    for required in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                     "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            raise BenchError(f"run from the source tree root: {required} "
                             "is missing")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.isfile(cache):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
                   + TARGETS, stdout=sys.stderr, check=True)


def provenance(info, data, workload, seed):
    sha, dirty = "unknown", None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout)
    except (OSError, subprocess.CalledProcessError):
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "compiler": info["compiler"],
        "simd": info["simd"],
        "nproc": len(os.sched_getaffinity(0)),
        "workers": WORKERS,
        "connections": CONNECTIONS if WORKLOADS[workload].get("serve") else 0,
        "seed": seed,
        "dataset": f"{data['dataset']} x{data['scale']}",
        "input_reads": data["reads"],
        "input_bases": data["bases"],
    }


# -------------------------------------------------------------- workloads

class Run:
    """One invocation: the workload's files live in .bench_work/<name>/."""

    def __init__(self, workload, seed, seconds):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.dir = os.path.join(WORK_ROOT, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(os.path.join(self.dir, "spill"))
        self.log = os.path.join(self.dir, "log.txt")
        self.reads = os.path.join(self.dir, "reads.fastq")
        self.reference = os.path.join(self.dir, "reference.fastq")
        self.data = None

    def generate(self):
        """Writes the seeded input and the simulator truth."""
        self.data = harness(["gen", "--seed", str(self.seed), "--dir",
                             self.dir, "--scale", str(SCALE)], self.log)
        self.data["scale"] = SCALE

    def correct_args(self, out, workers):
        args = [os.path.join(TOOLS, "ngs_correct"), "--in", self.reads,
                "--out", out, "--method", self.spec["method"],
                "--genome-length", str(self.data["genome_length"]),
                "--threads", str(workers)]
        if self.spec["budget_mb"]:
            args += ["--memory-budget-mb", str(self.spec["budget_mb"]),
                     "--spill-dir", os.path.join(self.dir, "spill")]
        return args

    def run_correct(self, out, workers):
        """One ngs_correct process: (exit code, wall s, peak RSS MiB,
        CPU s, pass-2 s). The pass-2 seconds are the input reads over the
        pass2_reads_per_sec of the tool's report (None if it has none)."""
        err = os.path.join(self.dir, "correct.err")
        if os.path.exists(err):
            os.unlink(err)
        code, wall, rss, cpu = run_timed(self.correct_args(out, workers), err)
        with open(err) as f:
            report = f.read()
        with open(self.log, "a") as f:
            f.write(report)
        rate = re.search(r"\bpass2_reads_per_sec=(\d+)", report)
        pass2 = self.data["reads"] / int(rate.group(1)) if rate else None
        return code, wall, rss, cpu, pass2

    def make_reference(self):
        code, *_ = self.run_correct(self.reference, 1)
        if code != 0:
            raise BenchError(f"reference run exited {code} (see {self.log})")
        with open(self.reference, "rb") as f:
            return f.read()

    def accuracy(self):
        return harness(["eval", "--reads", self.reads, "--truth",
                        os.path.join(self.dir, "truth.txt"), "--corrected",
                        self.reference], self.log)

    def serve_setup(self):
        """Index build + daemon spawn to first HELLO_OK, SETUP_REPEATS
        times; the last daemon keeps running. Returns the daemon, the
        set-up times and the spawn-to-HELLO_OK times."""
        index = os.path.join(self.dir, "index.ngsx")
        times, starts, daemon = [], [], None
        for i in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            code, build_s, _, _ = run_timed(
                [os.path.join(TOOLS, "ngs_index"), "build", "--in",
                 self.reads, "--out", index, "--threads", str(WORKERS)],
                self.log)
            if code != 0:
                raise BenchError(f"ngs_index build exited {code}")
            daemon = Daemon(index, self.dir, self.log)
            try:
                ready = harness(["hello", "--socket", SOCKET,
                                 "--genome-length",
                                 str(self.data["genome_length"])], self.log,
                                self.dir)
            except BenchError:
                daemon.stop()
                raise
            starts.append(ready["hello_ok_mono"] - daemon.started)
            times.append(build_s + starts[-1])
        return daemon, times, starts

    def load(self, *extra):
        """The closed-loop client against the running daemon."""
        return harness(["load", "--socket", SOCKET, "--reads", self.reads,
                        "--expect", self.reference, "--connections",
                        str(CONNECTIONS), "--window", str(WINDOW), "--batch",
                        str(SERVE_BATCH), "--genome-length",
                        str(self.data["genome_length"])] + list(extra),
                       self.log, self.dir)

    # ---------------------------------------------------- end-to-end runs

    def file_runs(self, reference):
        """Fresh ngs_correct processes, one after another, for
        self.seconds; every output is compared with the reference."""
        out = os.path.join(self.dir, "out.fastq")
        iters, failed = [], 0
        deadline = time.monotonic() + self.seconds
        while not iters or time.monotonic() < deadline:
            if os.path.exists(out):
                os.unlink(out)
            code, wall, rss, cpu, pass2 = self.run_correct(out, WORKERS)
            data = None
            if code == 0:
                with open(out, "rb") as f:
                    data = f.read()
            failed += count_failures([data], reference)
            iters.append({"wall_s": wall, "peak_rss_mb": rss, "cpu_s": cpu,
                          "pass2_s": pass2, "exit": code})
        walls = [it["wall_s"] for it in iters]
        setups = [it["wall_s"] - it["pass2_s"] for it in iters
                  if it["exit"] == 0 and it["pass2_s"] is not None]
        metrics = {
            "reads_per_s": statistics.median(
                self.data["reads"] / w for w in walls),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "p50_ms": statistics.median(walls) * 1e3,
            "peak_rss_mb": statistics.median(
                it["peak_rss_mb"] for it in iters),
        }
        record = {"iterations": iters,
                  "cpu_s": sum(it["cpu_s"] for it in iters)}
        return metrics, len(iters), failed, record

    def serve_runs(self):
        daemon, setups, starts = self.serve_setup()
        cpu0 = os.times()
        try:
            load = self.load("--seconds", str(self.seconds))
        finally:
            code, _, rss, _ = daemon.stop()
        cpu1 = os.times()
        failed = load["busy"] + load["errors"] + load["mismatched"]
        if code != 0:
            raise BenchError(f"ngs_correctd exited {code} (see {self.log})")
        latency = load.pop("latency_ms")
        p99, above = percentile_with_tail(latency, 0.99)
        metrics = {
            "reads_per_s": load["reads_per_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "p50_ms": statistics.median(latency),
        }
        record = {
            "load": load, "setup_s": setups, "daemon_start_s": starts,
            "latency_samples": len(latency), "p99_ms": p99,
            "samples_above_p99": above,
            "cpu_s": (cpu1.children_user - cpu0.children_user)
            + (cpu1.children_system - cpu0.children_system),
        }
        return metrics, load["attempted"], failed, record

    def end_to_end(self):
        self.generate()
        reference = self.make_reference()
        steal0 = steal_seconds()
        if self.spec.get("serve"):
            metrics, attempted, failed, record = self.serve_runs()
        else:
            metrics, attempted, failed, record = self.file_runs(reference)
        record["steal_s"] = steal_seconds() - steal0
        accuracy = self.accuracy()
        for name in ("gain", "sensitivity", "specificity"):
            metrics[name] = accuracy[name]
        return metrics, attempted, failed, record

    # --------------------------------------------------------- traced run

    def traced(self):
        self.generate()
        self.make_reference()
        trace_args = ["trace", "--workload", self.name, "--dir", self.dir,
                      "--expect", self.reference, "--genome-length",
                      str(self.data["genome_length"]), "--workers",
                      str(WORKERS), "--budget-mb",
                      str(self.spec["budget_mb"])]
        if not self.spec.get("serve"):
            out = harness(trace_args, self.log)
            return out["metrics"], out["attempted"], out["failed"], {}
        daemon, _, starts = self.serve_setup()
        try:
            load = self.load("--traced", "1", "--spans",
                             os.path.join(self.dir, "spans_client.jsonl"))
        finally:
            code, *_ = daemon.stop()
        if code != 0:
            raise BenchError(f"ngs_correctd exited {code} (see {self.log})")
        out = harness(trace_args + ["--batch", str(SERVE_BATCH)], self.log)
        m = out["metrics"]
        latency = load.pop("latency_ms")
        p99, _ = percentile_with_tail(latency, 0.99)
        passes = load["passes"]
        m.update({
            "service.start_s": statistics.median(starts),
            "service.encode_ms": load["encode_ms"],
            "service.decode_ms": load["decode_ms"],
            "service.overhead_ms": statistics.median(latency)
            - m.pop("core.batch_correct_ms"),
            "service.busy_ratio": load["busy"] / load["attempted"],
            "service.protocol_errors": load["server_protocol_errors"],
            "service.p99_ms": p99 or 0.0,
            "service.latency_samples": len(latency),
            "core.reads_changed": load["server_reads_changed"]
            / (passes * CONNECTIONS),
            "core.reads_failed": load["server_batches_failed"],
            "trace.wall_s": load["pass_wall_s"][-1],
            "trace.unexplained_s": load["unexplained_s"],
            "trace.overhead_ratio": load["overhead_ratio"],
        })
        failed = out["failed"] + load["busy"] + load["errors"] \
            + load["mismatched"]
        return m, out["attempted"] + load["attempted"], failed, {"load": load}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        build()
        units = metric_units("per_layer" if args.trace else "end_to_end")
        run = Run(args.workload, args.seed, args.seconds)
        if args.trace:
            metrics, attempted, failed, record = run.traced()
        else:
            metrics, attempted, failed, record = run.end_to_end()
        info = harness(["info"], run.log)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        log(f"error: {e}")
        return 1
    record.update({
        "provenance": provenance(info, run.data, args.workload, args.seed),
        "workload": args.workload,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })
    results = os.path.join(WORK_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    log(f"{args.workload}: {attempted} checked, {failed} failed, "
        f"steal {record.get('steal_s', 0.0):.2f}s, record in {path}")
    print(result_line(metrics, attempted, failed, units), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
