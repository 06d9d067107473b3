"""resolvend-lab benchmark: fresh-interpreter workload runs with output checks.

    python3 bench/run.py --workload ring --seed 1 --seconds 28 --trace 0
    python3 bench/run.py                  # every workload, one table

Each sample starts a fresh interpreter (bench/child.py), because every CLI
user pays cold lru_caches; a second run in one process would time cache
lookups instead of the work.  Samples run one after another (closed loop,
one client) until the next one would overrun --seconds, and at least
MIN_SAMPLES of them run.

--trace 0 prints the end-to-end metrics, each the median over the samples:
setup_s (interpreter start until ``import resolvendlab`` returns),
wall_vs_probe (the workload's wall time over the mean time of a small fixed
kernel that runs in the same process every 0.1 s during it; see END_TO_END)
and peak_rss_mb.  It also prints the median, quartiles, minimum and count of
the raw wall_s and of every metric, fail_ratio and the report md5.
--trace 1 alternates untraced and traced samples and prints the per-layer
metrics of bench/tracer.py and the tracing overhead.

The last line of output is one JSON object: correct, attempted, failed and
metrics.  A sample fails its check when the exit code is not 0, the report
counts a failed record, or its ordered (case, verdict) list differs from
bench/reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
REFERENCE = os.path.join(BENCH, "reference.json")

from tracer import CACHES, LAYERS, REPORTED, WORK  # bench/ is sys.path[0]

MIN_SAMPLES = 3
RUN_LIMIT_S = 140  # every sample of one workload ends by then, or is killed
WARMUP_LIMIT_S = 30

# name -> (resolvend-lab arguments, or None for the in-process padic loop)
WORKLOADS = {
    # dense small-conductor CycloElement add/mul/from_terms and the |G|^2
    # group-ring product.  1 trial, not the CLI's 50: a default run takes
    # about 50 s, too long for several samples a run, and traced it splits
    # its self time between the layers as 1 trial does (cyclotomic 90.3 %
    # against 91.6 %, groupring 7.3 % against 6.2 %, abelian 1.4 % against
    # 1.2 %), though the one round also runs the unit checks
    "ring": ["verify", "groupring", "--group", "15", "--group", "30", "--trials", "1"],
    # sparse from_terms and adds at conductors p(p-1) up to 930, packed
    # big-int power sums, ~60 independent tasks; a little padic
    "gauss": ["verify", "gauss"],
    # Fraction pairing and the numpy box sweep; never builds a CycloElement
    "lattice": ["verify", "stickelberger"],
    # PadicCycloElement products, powers, pi_valuation, teichmuller
    "padic": None,
}

# Traced functions that must record calls on each workload; a rename that
# zeroes one of them stops the traced run instead of reporting zeros.
EXPECTED = {
    "ring": [
        "cyclotomic.add",
        "cyclotomic.mul",
        "cyclotomic.from_terms",
        "cyclotomic.inverse",
        "cyclotomic.eq",
        "groupring.transform",
        "groupring.inverse_transform",
        "groupring.ring_mul",
        "groupring.resolvend",
        "groupring.is_unit",
        "groupring.unit_inverse",
        "groupring.reduced_equal",
        "groupring.unit_pair_check",
        "abelian.char_exponent",
        "abelian.dual_enumerate",
        "suites.run_groupring",
        "cli.main",
    ],
    "gauss": [
        "gauss.gauss_sum",
        "gauss.gauss_valuation",
        "gauss.verify_translation",
        "gauss.character_sum_identity",
        "gauss.power_sum_S",
        "gauss.backend_coherence",
        "cyclotomic.add",
        "cyclotomic.from_terms",
        "cyclotomic.eq",
        "padic.mul",
        "padic.add",
        "padic.pi_valuation",
        "padic.teichmuller",
        "padic.embed_cyclo",
        "numutil.discrete_log_table",
        "suites.run_gauss",
        "cli.main",
    ],
    "lattice": [
        "stickelberger.stickelberger_map",
        "stickelberger.pairing",
        "stickelberger.in_S",
        "stickelberger.kappa_twist",
        "abelian.char_exponent",
        "abelian.element_order",
        "abelian.dual_enumerate",
        "suites.run_stickelberger",
        "cli.main",
    ],
    "padic": [
        "padic.mul",
        "padic.add",
        "padic.pi_valuation",
        "padic.teichmuller",
    ],
}

# (name, unit); each is the median of the sample field of that name.  On a
# shared host every process runs up to 70 % slower in phases of seconds to
# minutes, so the raw wall_s of runs made minutes apart spread by 15-40 %.
# wall_vs_probe divides each sample's wall time by the mean time of the probe
# kernel of bench/child.py, which runs every 0.1 s during the workload and so
# slows down with it; a faster program lowers it as it lowers wall_s.  The
# raw wall_s is printed beside it.
END_TO_END = (("setup_s", "s"), ("wall_vs_probe", "ratio"), ("peak_rss_mb", "MiB"))


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in output order."""
    out = []
    for layer, fns in REPORTED.items():
        for fn in fns:
            out += [("%s.%s.calls" % (layer, fn), "count"), ("%s.%s.self_s" % (layer, fn), "s")]
    out += [("%s.%s" % (key, suffix), "count") for key, suffix in WORK.items()]
    for layer in LAYERS:
        out += [
            ("%s.calls" % layer, "count"),
            ("%s.self_s" % layer, "s"),
            ("%s.errors" % layer, "count"),
        ]
    out += [("cache.%s.hit_ratio" % n, "ratio") for names in CACHES.values() for n in names]
    out += [
        ("cli.report_bytes", "bytes"),
        ("process.cpu_s", "s"),
        ("process.cpu_per_wall", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


def child_env():
    """The pinned environment every sample runs in."""
    env = dict(os.environ)
    env.pop("RESOLVEND_LAB_JOBS", None)  # no --jobs either: the CLI default
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC  # the checkout's sources, not an installed copy
    return env


def command(workload, seed):
    argv = WORKLOADS[workload]
    if argv is None:
        return "in-process padic loop, seed %d (bench/padic_loop.py)" % seed
    return "resolvend-lab %s --seed %d --format json" % (" ".join(argv), seed)


def sample(workload, seed, trace, timeout):
    """One fresh-interpreter sample; a dict, with "error" set if it broke."""
    argv = WORKLOADS[workload]
    spec = {
        "src": SRC,
        "argv": None if argv is None else argv + ["--seed", str(seed), "--format", "json"],
        "seed": seed,
        "trace": bool(trace),
    }
    started = time.monotonic()
    spec["spawned"] = started
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(spec)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out after %.0f s" % timeout, "elapsed": timeout}
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": "exit %d: %s" % (proc.returncode, tail), "elapsed": elapsed}
    out = json.loads(lines[-1])
    out["elapsed"] = elapsed
    return out


def check(s, reference):
    """None if the sample passes its output check, else the reason."""
    if "error" in s:
        return s["error"]
    if s["code"] != 0:
        return "exit code %d" % s["code"]
    if s["failed"]:
        return "%d failed records" % s["failed"]
    if s["cases"] != reference["cases"]:
        got = {tuple(c) for c in s["cases"]}
        want = {tuple(c) for c in reference["cases"]}
        diff = sorted(got ^ want)[:3]
        return "(case, verdict) list differs from the reference, e.g. %s" % diff
    return None


def collect(workload, seed, seconds, trace):
    """Run samples until the next would overrun; returns (untraced, traced)."""
    plain, traced = [], []
    start = time.monotonic()
    hard = start + RUN_LIMIT_S
    kinds = [False, True] if trace else [False]
    while True:
        for kind in kinds:
            s = sample(workload, seed, kind, max(hard - time.monotonic(), 1.0))
            (traced if kind else plain).append(s)
            print(
                "  sample %-6s %s"
                % (
                    "traced" if kind else "plain",
                    s["error"]
                    if "error" in s
                    else "wall_s=%.4f setup_s=%.4f peak_rss_mb=%.1f"
                    % (s["wall_s"], s["setup_s"], s["peak_rss_mb"]),
                ),
                flush=True,
            )
        now = time.monotonic()
        step = (now - start) / len(plain)
        if now + step > hard or (len(plain) >= MIN_SAMPLES and now + step > start + seconds):
            return plain, traced


def spread(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def print_metric(workload, name, values, unit):
    med, q1, q3 = spread(values)
    print(
        "%-8s %-12s median %.4f %s  q1 %.4f  q3 %.4f  min %.4f  n=%d"
        % (workload, name, med, unit, q1, q3, min(values), len(values))
    )
    return {"value": med, "unit": unit}


def layer_metrics(traced, plain):
    """Per-layer metric values from the traced samples, with their units."""
    units = dict(per_layer_metrics())
    good = [s for s in traced if "layers" in s]
    values = {}
    for layer, fns in REPORTED.items():
        for fn in fns:
            rows = [s["layers"].get("%s.%s" % (layer, fn)) for s in good]
            rows = [r for r in rows if r] or [{"calls": 0, "self_s": 0.0}]
            values["%s.%s.calls" % (layer, fn)] = rows[0]["calls"]
            values["%s.%s.self_s" % (layer, fn)] = statistics.median(
                r["self_s"] for r in rows
            )
    for key, suffix in WORK.items():
        values["%s.%s" % (key, suffix)] = good[0]["layers"].get(key, {}).get("work", 0)
    for layer in LAYERS:
        prefix = layer + "."
        per_sample = [
            [row for key, row in s["layers"].items() if key.startswith(prefix)]
            for s in good
        ]
        values[layer + ".calls"] = sum(r["calls"] for r in per_sample[0])
        values[layer + ".self_s"] = statistics.median(
            sum(r["self_s"] for r in rows) for rows in per_sample
        )
        values[layer + ".errors"] = sum(r["errors"] for r in per_sample[0])
    for name, ratio in good[0]["caches"].items():
        values["cache.%s.hit_ratio" % name] = ratio
    values["cli.report_bytes"] = good[0]["report_bytes"]
    ok_plain = [s for s in plain if "wall_s" in s]
    cpu = statistics.median(s["cpu_s"] for s in ok_plain)
    values["process.cpu_s"] = cpu
    values["process.cpu_per_wall"] = cpu / statistics.median(s["wall_s"] for s in ok_plain)
    # against the probe kernel, for the reason given at END_TO_END
    values["trace.overhead_ratio"] = (
        statistics.median(s["wall_vs_probe"] for s in good)
        / statistics.median(s["wall_vs_probe"] for s in ok_plain)
        - 1.0
    )
    return {name: {"value": values[name], "unit": units[name]} for name, _ in per_layer_metrics()}


def report_traced(workload, traced, plain):
    """Print the layer table; exits if an expected wrapper never fired."""
    good = [s for s in traced if "layers" in s]
    if not good or not any("wall_s" in s for s in plain):
        print("error: no traced and untraced sample completed", file=sys.stderr)
        sys.exit(1)
    silent = [k for k in EXPECTED[workload] if not good[0]["layers"].get(k, {}).get("calls")]
    if silent:
        print(
            "error: traced functions recorded no calls on %s: %s"
            % (workload, ", ".join(silent)),
            file=sys.stderr,
        )
        sys.exit(1)
    metrics = layer_metrics(traced, plain)
    total = sum(metrics[layer + ".self_s"]["value"] for layer in LAYERS)
    print("%-8s %-14s %12s %10s %7s %7s" % (workload, "layer", "calls", "self_s", "share", "errors"))
    for layer in sorted(LAYERS, key=lambda l: -metrics[l + ".self_s"]["value"]):
        self_s = metrics[layer + ".self_s"]["value"]
        print(
            "%-8s %-14s %12d %10.4f %6.1f%% %7d"
            % (
                workload,
                layer,
                metrics[layer + ".calls"]["value"],
                self_s,
                100.0 * self_s / total if total else 0.0,
                metrics[layer + ".errors"]["value"],
            )
        )
    # machine noise can exceed the overhead; it is resolved only when the
    # traced and untraced wall_vs_probe quartile ranges do not overlap
    _, plain_q1, plain_q3 = spread([s["wall_vs_probe"] for s in plain if "wall_s" in s])
    _, traced_q1, traced_q3 = spread([s["wall_vs_probe"] for s in good])
    resolved = traced_q1 > plain_q3 or traced_q3 < plain_q1
    print(
        "%-8s tracing overhead %+.1f%% (traced wall_vs_probe median over untraced, n=%d/%d)%s"
        % (
            workload,
            100 * metrics["trace.overhead_ratio"]["value"],
            len(good),
            len(plain),
            "" if resolved else "; unresolved: the quartiles overlap",
        )
    )
    for name, m in metrics.items():
        print("%-8s %s %s %s" % (workload, name, m["value"], m["unit"]))
    return metrics


def run_workload(workload, seed, seconds, trace, reference):
    print("workload %s: %s" % (workload, command(workload, seed)), flush=True)
    plain, traced = collect(workload, seed, seconds, trace)
    samples = plain + traced
    ref = reference[workload]
    reasons = [check(s, ref) for s in samples]
    failed = sum(1 for r in reasons if r)
    for r in sorted({r for r in reasons if r}):
        print("%-8s check failed: %s" % (workload, r))
    md5s = sorted({s["md5"] for s in samples if "md5" in s})
    recorded = ref["md5"].get(str(seed))
    print(
        "%-8s fail_ratio   %.4f ratio (%d of %d samples failed their check)"
        % (workload, failed / len(samples), failed, len(samples))
    )
    print(
        "%-8s report md5 %s (reference for seed %d: %s)"
        % (
            workload,
            ",".join(md5s) or "-",
            seed,
            "not recorded" if recorded is None else ("match" if md5s == [recorded] else "DIFFERS"),
        )
    )
    correct = failed == 0 and len(md5s) == 1
    if trace:
        metrics = report_traced(workload, traced, plain)
    else:
        ok = [s for s in plain if "wall_s" in s]
        if not ok:
            print("error: no sample of %s completed" % workload, file=sys.stderr)
            sys.exit(1)
        print_metric(workload, "wall_s", [s["wall_s"] for s in ok], "s")
        print_metric(workload, "probe_s", [s["probe_s"] for s in ok], "s")
        metrics = {
            name: print_metric(workload, name, [s[name] for s in ok], unit)
            for name, unit in END_TO_END
        }
        if WORKLOADS[workload] is None:
            for op in ok[0]["op_seconds"]:
                print(
                    "%-8s padic %-13s median %.4f s per sample"
                    % (workload, op, statistics.median(s["op_seconds"][op] for s in ok))
                )
    return {"correct": correct, "attempted": len(samples), "failed": failed, "metrics": metrics}


def print_table(results):
    print("%-8s %9s %13s %12s %10s %3s" % ("workload", "setup_s", "wall_vs_probe", "peak_rss_MiB", "fail_ratio", "n"))
    for workload, r in results.items():
        m = r["metrics"]
        print(
            "%-8s %9.4f %13.4f %12.1f %10.4f %3d"
            % (
                workload,
                m["setup_s"]["value"],
                m["wall_vs_probe"]["value"],
                m["peak_rss_mb"]["value"],
                r["failed"] / r["attempted"],
                r["attempted"],
            )
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "resolvendlab", "__init__.py")):
        print("error: no resolvendlab sources under %s" % SRC, file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    print(
        "env python=%s nproc=%d PYTHONHASHSEED=0 RESOLVEND_LAB_JOBS=unset jobs=cli-default "
        "platform=%s" % (platform.python_version(), len(os.sched_getaffinity(0)), platform.platform())
    )
    # one untimed start, so byte-compiling the sources is not timed as set-up
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import resolvendlab"],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=WARMUP_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        print("error: importing resolvendlab took over %d s" % WARMUP_LIMIT_S, file=sys.stderr)
        return 2
    if proc.returncode != 0:
        print("error: cannot import resolvendlab: %s" % proc.stderr.strip(), file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, args.trace, reference) for w in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        if not args.trace:
            print_table(results)
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                "%s.%s" % (w, name): m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
