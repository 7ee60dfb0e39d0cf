#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload spread --seed 1 --seconds 50 --trace 0

Every run covers the system's three user-visible paths, each in
processes of its own:

  sweep         cold `webdep scores`-equivalent sweeps, --jobs 2
  epoch_replay  a 48-epoch, 2 %-churn churn log over the swept dataset:
                appends, warm start, compaction, compacted warm start
  serve         a `webdep serve` daemon (c = 300, both measured epochs plus
                a 24-epoch churn log, --jobs 2): snapshot restarts, then
                closed- and open-loop load from one load-generator process
                with 2 connections

After the set-up, the run measures in rounds until --seconds are spent
(at least MIN_ROUNDS): each round is one sweep and one pass of the epoch
steps in a long-lived offline process, then a snapshot restart and one
round of load against a fresh daemon.  Every metric is the median of its
samples over all rounds, so each spans the whole run and a slow spell of
the host moves a few samples of every metric rather than all samples of
one.  The workloads differ in toplist size and serve key mix (see
WORKLOADS).  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics.  Any failed
correctness check exits 2.  perfbench/README.md has the metric map.
"""

import argparse
import ctypes
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORK = ".bench_work"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench_main.exe")
CLI = os.path.join(BUILD_DIR, "default", "bin", "webdep_cli.exe")

# Per workload: the toplist size of the sweep and of the churn log's
# baseline, and the serve key mix (perfbench/keygen.ml).
WORKLOADS = {
    # The specified sizes: a paper-proportioned c = 1000 sweep and churn
    # log; ~5.1e5 distinct (kind, epoch, layer, country, k) keys drawn
    # uniformly, so most requests miss the response cache.
    "spread": {"c": 1000, "mix": "spread"},
    # The reproduction bench's sizes: c = 300, as its epoch and serve
    # phases use, and its serve_mix request pattern (184 distinct keys),
    # so after warm-up every request is a cache hit.
    "hot": {"c": 300, "mix": "serve_mix"},
}

SERVE_C = 300
MIN_ROUNDS = 2
RUN_DEADLINE_S = 170.0


def declared_metrics():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Run:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.procs = []

    def remaining(self):
        return RUN_DEADLINE_S - (time.monotonic() - self.start)

    def phase(self, name, *flags, preexec_fn=None):
        """Run one perfbench_main subcommand; return its JSON result."""
        out = os.path.join(WORK, name + ".json")
        cmd = [EXE, name, *map(str, flags), "--out", out]
        t0 = time.monotonic()
        try:
            subprocess.run(cmd, check=True, timeout=max(1.0, self.remaining()),
                           stdout=sys.stderr, preexec_fn=preexec_fn)
        except subprocess.CalledProcessError as e:
            raise BenchError(f"{name} exited with {e.returncode}")
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name} timed out")
        log(f"perfbench: {name} took {time.monotonic() - t0:.1f} s")
        with open(out) as f:
            return json.load(f)

    # --- the offline worker ----------------------------------------------

    def start_offline(self, *flags):
        cmd = [EXE, "offline", *map(str, flags)]
        p = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             bufsize=0)
        self.procs.append(p)
        return p

    def recv(self, p):
        """The worker's next '@' message (Report.send); other lines go to
        stderr."""
        while True:
            ready, _, _ = select.select([p.stdout], [], [], max(0.0, self.remaining()))
            line = p.stdout.readline().decode() if ready else None
            if line is None:
                raise BenchError("offline worker timed out")
            if not line:
                raise BenchError(f"offline worker exited with {p.wait()}")
            if line.startswith("@"):
                return json.loads(line[1:])
            log(line.rstrip("\n"))

    def command(self, p, line):
        p.stdin.write(line.encode() + b"\n")

    def finish_offline(self, p, res=None):
        """Close the worker's stdin, which ends its rounds; return its
        report (the traced worker has sent it already as [res])."""
        p.stdin.close()
        if res is None:
            res = self.recv(p)
        if p.wait(timeout=max(1.0, self.remaining())) != 0:
            raise BenchError(f"offline worker exited with {p.returncode}")
        return res

    # --- the daemon ------------------------------------------------------

    def start_daemon(self, tag):
        """Spawn `webdep serve`; return (process, seconds until listening)."""
        sock = os.path.join(WORK, "wd.sock")
        cmd = [CLI, "serve", "--socket", sock, "--seed", str(self.args.seed),
               "-c", str(SERVE_C), "--jobs", "2",
               "--epoch-log", os.path.join(WORK, "serve.log"),
               "--snapshot", os.path.join(WORK, "wd.snap"),
               "--metrics", os.path.join(WORK, f"daemon-{tag}.json")]
        err = open(os.path.join(WORK, f"daemon-{tag}.err"), "w")
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err)
        err.close()
        self.procs.append(p)
        ready, _, _ = select.select([p.stdout], [], [], max(1.0, self.remaining()))
        line = p.stdout.readline().decode() if ready else ""
        dt = time.perf_counter() - t0
        if "listening" not in line:
            raise BenchError(f"daemon {tag} did not come up")
        return p, dt

    def stop_daemon(self, p):
        """SIGTERM drains the daemon and rewrites its snapshot."""
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
        try:
            p.wait(timeout=30)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
        if p.stdout:
            p.stdout.close()
        if p.returncode != 0:
            raise BenchError(f"daemon exited with {p.returncode}")

    def cleanup(self):
        for p in self.procs:
            if p.poll() is None:
                p.kill()
                p.wait()
            for f in (p.stdin, p.stdout):
                if f and not f.closed:
                    f.close()


def fine_timer_slack():
    """Let the load generator's select timeouts expire within 1 us of the
    schedule instead of the default 50 us slack (prctl PR_SET_TIMERSLACK),
    so open-loop latency is not padded by the generator's own wake-ups."""
    ctypes.CDLL(None).prctl(29, 1000, 0, 0, 0)


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of /proc/<pid>/stat
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM")


def build():
    # dune comes from the opam switch; without it on PATH, ask opam.
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    cmd = dune + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                  "--profile", "release", "--cache", "disabled",
                  "./perfbench/perfbench_main.exe", "./bin/webdep_cli.exe"]
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError(f"build failed: {e}")


def serve_setup(r, seed):
    """The daemon's churn log and a cold start, whose SIGTERM drain writes
    the snapshot every later start restores; returns its seconds."""
    t0 = time.perf_counter()
    r.phase("serve-setup", "--seed", seed, "--log", os.path.join(WORK, "serve.log"))
    cold, _ = r.start_daemon("cold")
    r.stop_daemon(cold)
    return time.perf_counter() - t0


def serve_round(r, k, mix):
    """A snapshot restart, then one round of load; returns the daemon and
    the round's figures."""
    p, restart_s = r.start_daemon(f"r{k}")
    cpu0 = proc_cpu_s(p.pid)
    load = r.phase("loadgen", "--socket", os.path.join(WORK, "wd.sock"),
                   "--seed", r.args.seed, "--mix", mix, preexec_fn=fine_timer_slack)
    log("perfbench: qps per window " + " ".join(f"{q:.0f}" for q in load["qps"]))
    return p, {"restart_s": restart_s, "load": load,
               "daemon_cpu_s": proc_cpu_s(p.pid) - cpu0,
               "daemon_hwm_mb": proc_hwm_mb(p.pid),
               "dump": os.path.join(WORK, f"daemon-r{k}.json")}


def measure(r, offline, trace):
    """Rounds until --seconds are spent; the last round's daemon answers
    the serve check before it stops.  Returns (rounds, check)."""
    seed, mix = r.args.seed, WORKLOADS[r.args.workload]["mix"]
    rounds, t0 = [], time.perf_counter()
    while True:
        if not trace:
            t1 = time.perf_counter()
            r.command(offline, "round")
            r.recv(offline)
            log(f"perfbench: offline round took {time.perf_counter() - t1:.1f} s")
        p, rnd = serve_round(r, len(rounds), mix)
        rounds.append(rnd)
        spent = time.perf_counter() - t0
        last = (len(rounds) >= MIN_ROUNDS
                and spent * (len(rounds) + 1) / len(rounds) > r.args.seconds)
        if last:
            check = r.phase("serve-check", "--socket", os.path.join(WORK, "wd.sock"),
                            "--seed", seed, "--mix", mix,
                            "--snapshot", os.path.join(WORK, "wd.snap"),
                            "--log", os.path.join(WORK, "serve.log"),
                            "--trace", int(trace))
        r.stop_daemon(p)
        with open(rnd["dump"]) as f:
            rnd["dump"] = json.load(f)
        log(f"perfbench: round {len(rounds)} done at {spent:.1f} s")
        if last:
            return rounds, check


def median_of(rounds, f):
    return statistics.median(x for rnd in rounds for x in f(rnd))


def serve_summary(rounds):
    """The serve figures over all rounds: medians of per-window and
    per-daemon values, sums of counts."""
    loads = [rnd["load"] for rnd in rounds]
    dumps = [rnd["dump"] for rnd in rounds]
    counter = lambda name: sum(d["counters"][name] for d in dumps)
    hist = lambda name, q: statistics.median(d["histograms"][name][q] for d in dumps)
    hits, misses = counter("serve.cache.hits"), counter("serve.cache.misses")
    sent = sum(l["closed_sent"] + l["open_sent"] for l in loads)
    rtt_p50 = median_of(rounds, lambda rnd: rnd["load"]["closed_p50_us"])
    return {
        "sent": sent,
        "failed": sum(l["closed_failed"] + l["open_failed"] for l in loads),
        "shed": counter("serve.shed"),
        "distinct_keys": loads[-1]["distinct_keys"],
        "key_space": loads[-1]["key_space"],
        "mix": loads[-1]["mix"],
        "restarts": [rnd["restart_s"] for rnd in rounds],
        "restart_s": statistics.median(rnd["restart_s"] for rnd in rounds),
        "qps": median_of(rounds, lambda rnd: rnd["load"]["qps"]),
        "rtt_p50_us": rtt_p50,
        "open_p50_us": median_of(rounds, lambda rnd: rnd["load"]["open_p50_us"]),
        "serve_peak_rss_mb": statistics.median(rnd["daemon_hwm_mb"] for rnd in rounds),
        "layers": {
            "serve.cache.hit_ratio": hits / max(1, hits + misses),
            # each daemon starts with an empty cache and gets the same
            # traffic; every cacheable miss inserts one entry
            "serve.cache.entries": statistics.median(
                d["counters"]["serve.cache.misses"] for d in dumps),
            "serve.server.latency_p50_us": 1e6 * hist("serve.latency_s", "p50"),
            "serve.server.latency_p99_us": 1e6 * hist("serve.latency_s", "p99"),
            "serve.wire_gap_us": rtt_p50 - 1e6 * hist("serve.latency_s", "p50"),
            "serve.queue_depth_mean": hist("serve.queue_depth", "mean"),
            "serve.batch_size_mean": hist("serve.batch_size", "mean"),
            "serve.daemon_cpu_us_per_req":
                1e6 * sum(rnd["daemon_cpu_s"] for rnd in rounds) / max(1, sent),
            "loadgen.cpu_us_per_req": 1e6 * sum(l["cpu_s"] for l in loads) / max(1, sent),
            "loadgen.late_p99_ms": statistics.median(l["late_p99_ms"] for l in loads),
            "loadgen.rtt_p99_us": median_of(rounds, lambda rnd: rnd["load"]["closed_p99_us"]),
            "loadgen.open_p99_us": median_of(rounds, lambda rnd: rnd["load"]["open_p99_us"]),
            "loadgen.rtt_max_us": max(l["closed_max_us"] for l in loads),
        },
    }


def print_table(title, rows):
    print(f"== {title}")
    for name, value, unit in rows:
        print(f"  {name:<40} {value:>16.6g} {unit}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    trace = args.trace == 1

    r = Run(args)
    try:
        e2e, per_layer = declared_metrics()
        build()
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        offline = r.start_offline("--c", WORKLOADS[args.workload]["c"], "--seed", args.seed,
                                  "--dir", WORK, "--trace", args.trace)
        first = r.recv(offline)
        serve_setup_s = serve_setup(r, args.seed)
        rounds, check = measure(r, offline, trace)
        res = r.finish_offline(offline, first if trace else None)
        sweep, epoch = res["sweep"], res["epoch"]
        setup_s = (epoch if trace else first)["setup_s"] + serve_setup_s
        serve = serve_summary(rounds)
    except (BenchError, OSError, KeyError, ValueError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e!r}")
        return 1
    finally:
        r.cleanup()
        shutil.rmtree(WORK, ignore_errors=True)

    attempted = sweep["sites"] + epoch["appends"] + serve["sent"]
    failed = sweep["failed"] + serve["failed"]
    checks = {
        ("sweep (traced jobs 1 = jobs 1 = jobs 2, paper rho >= 0.98, "
         "stage replay = site loop)" if trace else
         "sweep (timed sweeps identical, paper rho >= 0.98)"): sweep["correct"],
        ("epoch_replay (head = cold recompute, compacted head = raw head"
         + ("" if trace else ", every round's heads equal") + ")"): epoch["correct"],
        f"serve ({check['checked']} replies byte-equal to local State.answer)":
            check["correct"],
    }
    correct = all(checks.values())

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} rounds={len(rounds)}")
    for name, ok in checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    print(f"  serve keys: {serve['distinct_keys']} distinct of {serve['key_space']} "
          f"({serve['mix']}) per round, {serve['sent']} requests, cache hit ratio "
          f"{serve['layers']['serve.cache.hit_ratio']:.3f}, {serve['failed']} failed, "
          f"{serve['shed']} shed")

    if trace:
        layers = dict(sweep["layers"])
        layers.update(epoch["layers"])
        layers.update(check["layers"])
        layers.update(serve["layers"])
        print_table("sweep stages, traced --jobs 1 (s)",
                    [(k, v, "s") for k, v in sweep["stage_rows_s"].items()]
                    + [("= stage sum", sweep["stage_sum_s"], "s"),
                       ("traced total", sweep["traced_total_s"], "s"),
                       ("untraced --jobs 1 total", sweep["untraced_jobs1_s"], "s"),
                       ("untraced --jobs 2 total", sweep["sweep_jobs2_s"], "s")])
        metrics = {k: {"value": layers[k], "unit": u} for k, u in per_layer.items()}
        print_table("per-layer metrics", [(k, m["value"], m["unit"])
                                          for k, m in metrics.items()])
    else:
        values = {
            "setup_s": setup_s,
            "sweep_s": sweep["sweep_s"],
            "sweep_peak_rss_mb": sweep["peak_rss_mb"],
            "append_ms": epoch["append_ms"],
            "warm_start_s": epoch["warm_start_s"],
            "compact_s": epoch["compact_s"],
            "compacted_warm_start_s": epoch["compacted_warm_start_s"],
            "epoch_peak_rss_mb": epoch["peak_rss_mb"],
            "restart_s": serve["restart_s"],
            "qps": serve["qps"],
            "rtt_p50_us": serve["rtt_p50_us"],
            "open_p50_us": serve["open_p50_us"],
            "serve_peak_rss_mb": serve["serve_peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in e2e.items()}
        print_table("end-to-end metrics", [(k, m["value"], m["unit"])
                                           for k, m in metrics.items()])
        lay = serve["layers"]
        print("  tails (per-layer when traced): closed p99 "
              f"{lay['loadgen.rtt_p99_us']:.1f} us, open p99 "
              f"{lay['loadgen.open_p99_us']:.1f} us, closed max "
              f"{lay['loadgen.rtt_max_us']:.0f} us")
        samples = {"sweep": sweep["sweep_samples"], "warm start": epoch["warm_samples"],
                   "compaction": epoch["compact_samples"],
                   "compacted warm start": epoch["cwarm_samples"],
                   "restart": serve["restarts"]}
        for name, xs in samples.items():
            print(f"  {name} samples (s): {', '.join(f'{x:.4f}' for x in xs)}")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 2


if __name__ == "__main__":
    sys.exit(main())
