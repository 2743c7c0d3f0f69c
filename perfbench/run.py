"""hplax benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 20 --trace 0

Run it from the repository root: it imports hplax from ./src and works in
./.perfbench.  The client calls `hplax.cli.main(argv)` in this process on
JSON documents generated from the seed, one request after the other.

--trace 0 imports hplax and writes the inputs several times (setup_s is the
import time plus the median time to write them), then runs whole
rounds of the request stream until --seconds have passed and at least
MIN_CALLS calls were made, or the stream ends.  It reports end-to-end
metrics; calls_per_s is the median over rounds of correct calls per second
of call time.  Call times are scaled to a reference host speed: the client
times probe(), a fixed integer computation, after every call, and multiplies
each call time by PROBE_REF_S / (median probe time in the call's round).
setup_s is not scaled: its spread across seeds was wider with the probe.
The unscaled values and the scales go to the metadata line.

--trace 1 runs a fixed prefix of the stream three times, each in a fresh
process started with --pass: untraced, with spans around every layer (see
spans.py), and untraced again.  It reports per-layer metrics of the traced
pass and its overhead over the mean of the two untraced ones.

Both modes check every distinct output against a second route after the
timed region (see checks.py) and require every repeat to be byte-identical
to the first answer.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The line before it carries run metadata and sample counts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import spans
import workloads

SETUP_REPS = 5          # setup_s: the import plus the median of this many set-ups
MIN_CALLS = 100         # so that at least 10 calls lie above the 90th percentile
TRACE_ROUNDS = 3        # rounds of the stream a traced run replays
TRACE_PASSES = ("plain", "traced", "plain")   # one fresh process each
ORACLE_LEVEL = 8        # solve-bvp windows up to this N + M meet the determinant route
PROBE_REF_S = 0.0008    # probe() time that defines the reference speed (median on
                        # a calm 2-vCPU x86-64 host, Python 3.11)
WORK_DIR = ".perfbench"

RATIONAL = re.compile(r"-?(\d+)(?:/(\d+))?")


def import_hplax(src: str) -> float:
    """Import hplax from src and return how long that took."""
    sys.path.insert(0, src)
    start = time.perf_counter()
    importlib.import_module("hplax.cli")
    elapsed = time.perf_counter() - start
    found = os.path.abspath(sys.modules["hplax"].__file__)
    if not found.startswith(src + os.sep):
        raise SystemExit(f"imported hplax from {found}, not from {src}")
    return elapsed


def set_up(workload, seed: int, run_dir: str):
    """Write every input document of the stream into a fresh directory."""
    plan = workloads.plan_stream(workload, seed)
    docs = os.path.join(run_dir, "in")
    shutil.rmtree(docs, ignore_errors=True)
    os.mkdir(docs)
    workloads.write_documents(plan, docs)
    # the client's own data are not the program's: keep the collector from
    # scanning them in every collection, as it would not in an `hplax` process
    gc.unfreeze()
    gc.collect()
    gc.freeze()
    return plan, docs


def probe() -> float:
    """Time one fixed computation in plain Python integers: fraction-free
    elimination of a 12 x 12 matrix of 64-bit numbers.

    The host's speed drifts by a quarter over minutes; probing after every
    call measures that drift where the calls ran.  The probe touches
    neither hplax nor `fractions`, so no change to them can move it."""
    start = time.perf_counter()
    x, m = 1, []
    for _ in range(12):
        row = []
        for _ in range(12):
            x = (x * 6364136223846793005 + 1442695040888963407) % 2 ** 64
            row.append(x)
        m.append(row)
    prev = 1
    for k in range(11):
        for i in range(k + 1, 12):
            for j in range(k + 1, 12):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return time.perf_counter() - start


def call(cli, argv) -> tuple[float, int | None]:
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:       # a crash is a failed call, not a failed benchmark
        rc = None
    return time.perf_counter() - start, rc


class Outputs:
    """First answer of every distinct request, and repeats compared to it."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.first: dict[str, tuple[str, int | None, str]] = {}   # key -> path, rc, digest
        self.calls: list[tuple[str, bool]] = []                   # key, same as first

    def path(self, req) -> str:
        if req.key in self.first:
            return os.path.join(self.out_dir, "repeat.json")
        return os.path.join(self.out_dir, f"{req.rid}.json")

    def record(self, req, path: str, rc: int | None) -> bytes:
        data = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            if req.key in self.first:
                os.remove(path)
        digest = hashlib.sha256(data).hexdigest()
        if req.key in self.first:
            _, rc0, digest0 = self.first[req.key]
            self.calls.append((req.key, rc == rc0 and digest == digest0))
        else:
            self.first[req.key] = (path, rc, digest)
            self.calls.append((req.key, True))
        return data


def check_outputs(plan, outputs: Outputs, requests) -> dict[str, str | None]:
    """Verdict for every distinct key: None when right, else the reason."""
    by_key = {}
    for req in requests:
        by_key.setdefault(req.key, req)
    verdicts: dict[str, str | None] = {}
    sweeps: dict[tuple, dict] = {}
    for key, req in by_key.items():
        path, rc, _ = outputs.first[key]
        system = plan.systems[(req.slot.family, req.system)]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            verdicts[key] = f"no readable output ({exc.__class__.__name__}), exit {rc}"
            continue
        if req.slot.cmd == "solve-bvp" and req.planted_k is None:
            sweeps.setdefault((req.slot.family, req.system), {})[key] = (rc, doc, req.window)
            continue
        try:
            verdicts[key] = checks.check_request(req.slot.cmd, rc, doc, system,
                                                 req.window, req.planted_k)
        except Exception as exc:    # malformed output fails the call, not the run
            verdicts[key] = f"check raised {exc!r}"
    for ident, results in sweeps.items():
        try:
            verdicts.update(checks.check_sweeps(results, plan.systems[ident], ORACLE_LEVEL))
        except Exception as exc:
            verdicts.update({key: f"check raised {exc!r}" for key in results})
    return verdicts


def call_failures(outputs: Outputs, verdicts) -> list[str | None]:
    """For each call in order: why it failed, or None."""
    reasons = []
    for key, same in outputs.calls:
        if verdicts.get(key) is not None:
            reasons.append(f"{key}: {verdicts[key]}")
        elif not same:
            reasons.append(f"{key}: repeat differs from the first answer")
        else:
            reasons.append(None)
    return reasons


def timed_run(workload, seed: int, seconds: float, src: str, run_dir: str):
    imported = import_hplax(src)
    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        plan, docs = set_up(workload, seed, run_dir)
        setups.append(imported + time.perf_counter() - start)
    cli = sys.modules["hplax.cli"]
    out_dir = os.path.join(run_dir, "out")
    os.mkdir(out_dir)
    outputs = Outputs(out_dir)
    per_round = len(workload.slots)
    latencies: list[float] = []
    probes: list[float] = []
    stderr, sys.stderr = sys.stderr, io.StringIO()
    try:
        start = time.perf_counter()
        for i, req in enumerate(plan.requests):
            path = outputs.path(req)
            latency, rc = call(cli, plan.argv(req, docs, path))
            latencies.append(latency)
            outputs.record(req, path, rc)
            probes.append(probe())
            sys.stderr.seek(0)
            sys.stderr.truncate()
            done = i + 1
            if (done % per_round == 0 and done >= MIN_CALLS
                    and time.perf_counter() - start >= seconds):
                break
        wall = time.perf_counter() - start
    finally:
        sys.stderr = stderr
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    executed = plan.requests[:len(latencies)]
    checked = time.perf_counter()
    verdicts = check_outputs(plan, outputs, executed)
    checked = time.perf_counter() - checked
    reasons = call_failures(outputs, verdicts)
    attempted = len(latencies)
    failed = attempted - reasons.count(None)
    # each call time scaled by the probe times of its round, where it ran
    rounds = range(0, attempted, per_round)
    scales = [PROBE_REF_S / statistics.median(probes[i:i + per_round]) for i in rounds]
    scaled = [latency * scales[i // per_round] for i, latency in enumerate(latencies)]

    def rate(times):
        """Correct calls per second of call time in each round (every round
        has the same mix), median over rounds."""
        return statistics.median(reasons[i:i + per_round].count(None)
                                 / sum(times[i:i + per_round]) for i in rounds)

    measured = {
        "setup_s": statistics.median(setups),
        "call_p50_s": statistics.median(latencies),
        "call_p90_s": statistics.quantiles(latencies, n=10)[8],
        "calls_per_s": rate(latencies),
    }
    values = {
        "setup_s": measured["setup_s"],
        "call_p50_s": statistics.median(scaled),
        "call_p90_s": statistics.quantiles(scaled, n=10)[8],
        "calls_per_s": rate(scaled),
        "peak_rss_mib": peak_rss,
    }
    metrics = {name: (value, E2E_UNITS[name]) for name, value in values.items()}
    meta = {
        "samples": {"setup_s": len(setups), "call_p50_s": attempted,
                    "call_p90_s": attempted, "calls_per_s": len(scales),
                    "peak_rss_mib": 1},
        "failed_frac": failed / attempted,
        "measured": measured,
        "speed_scales": scales,
        "wall_s": wall,
        "check_s": checked,
        "rounds": len(scales),
        "distinct_requests": len(outputs.first),
        "repeat_share": 1 - len(outputs.first) / attempted,
        "planted": sum(r.planted_k is not None for r in executed),
        "failures": [r for r in reasons if r][:5],
    }
    return attempted, failed, metrics, meta


def output_bits(data: bytes) -> list[int]:
    """Numerator and denominator bit lengths of every rational string."""
    bits = []

    def walk(node):
        if isinstance(node, str):
            match = RATIONAL.fullmatch(node)
            if match:
                bits.append(int(match.group(1)).bit_length())
                if match.group(2):
                    bits.append(int(match.group(2)).bit_length())
        elif isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, dict):
            for item in node.values():
                walk(item)

    if data:
        walk(json.loads(data))
    return bits


def trace_pass(workload, seed: int, src: str, run_dir: str, traced: bool,
               span_path: str) -> dict:
    """One pass over the first TRACE_ROUNDS rounds of the stream, in a
    process that has served no request before it.

    A traced pass wraps every layer (set-up included), then checks its
    answers and computes the per-layer metrics; an untraced pass only
    times the calls.  Both return every distinct answer's exit code and
    digest, so the caller can compare the passes."""
    tracer = spans.Tracer()
    import_hplax(src)
    if traced:
        tracer.install()
    try:
        plan, docs = set_up(workload, seed, run_dir)
        cli = sys.modules["hplax.cli"]
        requests = plan.requests[:TRACE_ROUNDS * len(workload.slots)]
        out_dir = os.path.join(run_dir, "out")
        os.mkdir(out_dir)
        outputs = Outputs(out_dir)
        wall, sizes, bits = 0.0, 0, []
        stderr, sys.stderr = sys.stderr, io.StringIO()
        try:
            for req in requests:
                path = outputs.path(req)
                tracer.request = req.rid
                latency, rc = call(cli, plan.argv(req, docs, path))
                wall += latency
                data = outputs.record(req, path, rc)
                sizes += len(data)
                bits += output_bits(data)
        finally:
            sys.stderr = stderr
            tracer.request = spans.SETUP
    finally:
        tracer.uninstall()
    result = {"wall_s": wall,
              "answers": {key: [rc, digest] for key, (_, rc, digest) in outputs.first.items()}}
    if not traced:
        return result
    tracer.write(span_path)
    verdicts = check_outputs(plan, outputs, requests)
    values = spans.layer_metrics(tracer.finished())
    values["cli.out_bytes"] = sizes
    values["out.max_bits"] = max(bits, default=0)
    values["out.mean_bits"] = statistics.fmean(bits) if bits else 0.0
    result.update({"calls": [[key, reason] for (key, _), reason
                             in zip(outputs.calls, call_failures(outputs, verdicts))],
                   "values": values, "spans": len(tracer.spans)})
    return result


def trace_run(name: str, seed: int):
    """Untraced, traced and untraced passes, each in a fresh process.

    A fresh process per pass keeps any memo or cache inside hplax from
    serving the traced pass what an earlier pass computed, and the two
    untraced passes around the traced one cancel a steady drift of the
    host's speed out of trace.overhead_frac."""
    passes = []
    for kind in TRACE_PASSES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", "0", "--trace", "1", "--pass", kind]
        # three passes must end within the run limit of 180 s
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=55)
        if done.returncode != 0:
            raise SystemExit(f"{kind} pass failed:\n{done.stderr}")
        passes.append(json.loads(done.stdout.splitlines()[-1]))
    plain = [p for kind, p in zip(TRACE_PASSES, passes) if kind == "plain"]
    traced = passes[TRACE_PASSES.index("traced")]
    differ = {key for p in plain for key, answer in p["answers"].items()
              if traced["answers"][key] != answer}
    reasons = [reason or (f"{key}: traced and untraced answers differ" if key in differ
                          else None)
               for key, reason in traced["calls"]]
    failures = [r for r in reasons if r]
    untraced_wall = statistics.fmean(p["wall_s"] for p in plain)
    values = traced["values"]
    values["trace.overhead_frac"] = (traced["wall_s"] - untraced_wall) / untraced_wall
    metrics = {name: (value, layer_unit(name)) for name, value in values.items()}
    meta = {"samples": {name: 1 for name in values}, "traced_requests": len(reasons),
            "spans": traced["spans"], "untraced_wall_s": [p["wall_s"] for p in plain],
            "traced_wall_s": traced["wall_s"], "failures": failures[:5]}
    return len(reasons), len(failures), metrics, meta


E2E_UNITS = {"setup_s": "s", "call_p50_s": "s", "call_p90_s": "s",
             "calls_per_s": "1/s", "peak_rss_mib": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    if name.endswith("bits"):
        return "bits"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="trace_pass", choices=("plain", "traced"),
                        help="one pass of a traced run; --trace 1 starts each "
                             "in a fresh process")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hplax", "cli.py")):
        print(f"no hplax sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    work = os.path.join(root, WORK_DIR)
    os.makedirs(work, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    if args.trace and not args.trace_pass:
        attempted, failed, metrics, meta = trace_run(args.workload, args.seed)
    else:
        run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work)
        try:
            if args.trace_pass:
                span_path = os.path.join(work, f"spans-{args.workload}-{args.seed}.jsonl")
                print(json.dumps(trace_pass(workload, args.seed, src, run_dir,
                                            args.trace_pass == "traced", span_path)))
                return 0
            attempted, failed, metrics, meta = timed_run(workload, args.seed,
                                                         args.seconds, src, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    meta.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, 1 client, in-process",
        "python": platform.python_version(), "platform": platform.platform(),
        "machine": platform.machine(), "nproc": len(os.sched_getaffinity(0)),
    })
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
